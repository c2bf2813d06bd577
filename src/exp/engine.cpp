#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "exp/progress.hpp"
#include "obs/coverage.hpp"
#include "obs/json.hpp"

namespace blunt::exp {
namespace {

/// The resolved shard structure of a run: a pure function of (experiment,
/// options), so a resumed run agrees with the interrupted one on the exact
/// same shard space.
struct ShardLayout {
  std::int64_t trials = 0;
  std::uint64_t seed = 0;
  int shard_size = 0;
  std::int64_t num_shards = 0;
};

[[nodiscard]] ShardLayout resolve_layout(const Experiment& e,
                                         const RunOptions& opts) {
  ShardLayout l;
  l.trials = opts.trials >= 0 ? opts.trials : e.default_trials;
  if (e.resolve_trials) l.trials = e.resolve_trials(opts.trials);
  BLUNT_ASSERT(l.trials >= 0, "negative trial count");
  l.seed = opts.has_seed ? opts.seed : e.default_seed;
  l.shard_size = opts.shard_size > 0 ? opts.shard_size
                 : e.default_shard_size > 0 ? e.default_shard_size
                                            : kDefaultShardSize;
  l.num_shards = (l.trials + l.shard_size - 1) / l.shard_size;
  return l;
}

/// One shard, run on whichever worker claimed it. The result depends only on
/// (experiment, layout, shard index, coverage/profile flags). `trials_done`
/// is telemetry-only (nullptr when no --progress): the increment is outside
/// every per-trial computation, so progress reporting cannot perturb trial
/// results.
[[nodiscard]] Accumulator run_shard(const Experiment& e, const ShardLayout& l,
                                    std::int64_t shard, bool coverage,
                                    bool profile,
                                    std::atomic<std::int64_t>* trials_done) {
  Accumulator acc;
  const std::int64_t begin = shard * l.shard_size;
  const std::int64_t end = std::min(l.trials, begin + l.shard_size);
  for (std::int64_t i = begin; i < end; ++i) {
    TrialContext ctx;
    ctx.trial_index = i;
    ctx.experiment_seed = l.seed;
    ctx.trials = l.trials;
    ctx.seed = derive_seed(e.seed_derivation, l.seed, i);
    ctx.coverage = coverage;
    ctx.profile = profile;
    e.trial(ctx, acc);
    if (trials_done != nullptr) {
      trials_done->fetch_add(1, std::memory_order_relaxed);
    }
  }
  return acc;
}

// -- Progress telemetry ------------------------------------------------------

/// Worker-side counters the sampler thread reads. Everything is either an
/// atomic or guarded by cov_mu; the trial bodies themselves never see this
/// state.
struct ProgressState {
  explicit ProgressState(int workers)
      : steals(static_cast<std::size_t>(workers)) {
    for (auto& s : steals) s.store(0, std::memory_order_relaxed);
  }
  std::atomic<std::int64_t> shards_claimed{0};
  std::atomic<std::int64_t> shards_done{0};
  std::atomic<std::int64_t> trials_done{0};
  std::vector<std::atomic<std::int64_t>> steals;  // executed shards per worker
  std::mutex cov_mu;
  obs::CoverageMap cov;  // union of completed shards' fingerprints (all keys)

  [[nodiscard]] std::int64_t coverage_size() {
    const std::lock_guard<std::mutex> lock(cov_mu);
    return cov.size();
  }
  void add_coverage(const Accumulator& acc) {
    const std::lock_guard<std::mutex> lock(cov_mu);
    for (const auto& [name, m] : acc.coverage_maps()) cov.merge(m);
  }
};

/// Where and how often heartbeat lines go. The sampler shares the run's
/// single mutex-guarded writer discipline: it is the only thread that writes
/// the progress file.
struct ProgressSink {
  std::ofstream* out = nullptr;
  int interval_ms = 500;
  std::int64_t resumed_shards = 0;
};

[[nodiscard]] ProgressSample make_progress_sample(
    const Experiment& e, const ShardLayout& l, int threads, ProgressState& st,
    const ProgressSink& sink, double t_ms) {
  ProgressSample s;
  s.experiment = e.name;
  s.seed = l.seed;
  s.threads = threads;
  s.t_ms = t_ms;
  s.shards_total = l.num_shards;
  s.shards_resumed = sink.resumed_shards;
  s.shards_claimed = st.shards_claimed.load(std::memory_order_relaxed);
  s.shards_done = st.shards_done.load(std::memory_order_relaxed);
  s.trials_total = l.trials;
  s.trials_done = st.trials_done.load(std::memory_order_relaxed);
  s.trials_per_sec =
      t_ms > 0.0 ? 1000.0 * static_cast<double>(s.trials_done) / t_ms : 0.0;
  const std::int64_t resumed_trials =
      std::min(l.trials, sink.resumed_shards * l.shard_size);
  const std::int64_t remaining =
      std::max<std::int64_t>(0, l.trials - resumed_trials - s.trials_done);
  s.eta_ms = s.trials_per_sec > 0.0
                 ? 1000.0 * static_cast<double>(remaining) / s.trials_per_sec
                 : 0.0;
  s.coverage_size = st.coverage_size();
  for (const auto& w : st.steals) {
    s.steals.push_back(w.load(std::memory_order_relaxed));
  }
  return s;
}

// -- Checkpoint I/O ----------------------------------------------------------

constexpr const char* kShardSchema = "blunt-exp-shard";

/// One checkpoint JSONL line for a completed shard.
[[nodiscard]] obs::Json shard_checkpoint_line(const Experiment& e,
                                              const ShardLayout& l,
                                              std::int64_t shard,
                                              const Accumulator& acc) {
  obs::JsonObject o;
  o["schema"] = obs::Json(kShardSchema);
  o["experiment"] = obs::Json(e.name);
  o["seed"] = obs::Json(static_cast<std::int64_t>(l.seed));
  o["trials"] = obs::Json(l.trials);
  o["shard_size"] = obs::Json(l.shard_size);
  o["shard"] = obs::Json(shard);
  o["accumulator"] = acc.to_json();
  return obs::Json(std::move(o));
}

/// Loads every checkpointed shard matching (experiment, seed, trials,
/// shard_size). Tolerates torn/stale/foreign lines (they are skipped and the
/// shard simply re-runs); duplicate shard lines keep the last occurrence —
/// harmless, because a re-run shard contributes identical bits.
[[nodiscard]] std::map<std::int64_t, Accumulator> load_shard_checkpoint(
    const std::string& path, const Experiment& e, const ShardLayout& l) {
  std::map<std::int64_t, Accumulator> shards;
  std::ifstream in(path);
  if (!in) return shards;
  std::string line;
  int stale = 0;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const obs::Json j = obs::Json::parse(line);
      const obs::Json* schema = j.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != kShardSchema) {
        ++stale;
        continue;
      }
      if (j.at("experiment").as_string() != e.name ||
          static_cast<std::uint64_t>(j.at("seed").as_int()) != l.seed ||
          j.at("trials").as_int() != l.trials ||
          j.at("shard_size").as_int() != l.shard_size) {
        ++stale;
        continue;
      }
      const std::int64_t shard = j.at("shard").as_int();
      if (shard < 0 || shard >= l.num_shards) {
        ++stale;
        continue;
      }
      shards[shard] = Accumulator::from_json(j.at("accumulator"));
    } catch (const std::exception&) {
      ++stale;  // partial line from an interrupted run: re-run that shard
    }
  }
  if (stale > 0) {
    std::fprintf(stderr,
                 "exp: checkpoint %s: skipped %d stale/corrupt line(s)\n",
                 path.c_str(), stale);
  }
  return shards;
}

/// True when `path` is non-empty and its last byte is not a newline: the
/// fragment a kill mid-append leaves behind.
[[nodiscard]] bool has_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  return in.get() != '\n';
}

/// The fixed merge tree: left fold in ascending shard index. `growth`, when
/// non-null, receives the per-key cumulative coverage-growth curve computed
/// inside the same fold.
[[nodiscard]] Accumulator fold_shards(
    std::vector<Accumulator> shard_accs,
    std::map<std::string, std::vector<std::int64_t>>* growth = nullptr) {
  std::set<std::string> keys;
  if (growth != nullptr) {
    for (const Accumulator& acc : shard_accs) {
      for (const auto& [name, m] : acc.coverage_maps()) keys.insert(name);
    }
  }
  Accumulator merged;
  for (const Accumulator& acc : shard_accs) {
    merged.merge(acc);
    if (growth != nullptr) {
      for (const std::string& k : keys) {
        (*growth)[k].push_back(
            static_cast<std::int64_t>(merged.coverage(k).size()));
      }
    }
  }
  return merged;
}

struct PassResult {
  std::vector<Accumulator> shard_accs;  // indexed by shard
  int shards_executed = 0;
  bool complete = true;
  double wall_ms = 0.0;
};

/// Worker count for a pass — capped by the shard count so steal telemetry
/// never reports idle phantom workers.
[[nodiscard]] int pass_workers(const ShardLayout& l, int threads) {
  return static_cast<int>(std::min<std::int64_t>(
      std::max(1, threads), std::max<std::int64_t>(1, l.num_shards)));
}

/// One full pass over the shard space at `threads` workers. `resumed` shards
/// are folded in without running. When `checkpoint` is non-null, each newly
/// completed shard is appended through the single mutex-guarded writer.
/// `progress` (may be null) only receives telemetry writes — it never feeds
/// back into what a shard computes.
[[nodiscard]] PassResult run_pass(
    const Experiment& e, const ShardLayout& l, int threads,
    const std::map<std::int64_t, Accumulator>& resumed,
    std::ofstream* checkpoint, int max_shards, bool coverage, bool profile,
    ProgressState* progress) {
  PassResult pass;
  pass.shard_accs.resize(static_cast<std::size_t>(l.num_shards));
  for (const auto& [shard, acc] : resumed) {
    pass.shard_accs[static_cast<std::size_t>(shard)] = acc;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> next_shard{0};
  std::atomic<int> executed{0};
  std::atomic<bool> stopped{false};
  std::mutex writer_mu;  // the run's single aggregator-side writer

  std::atomic<std::int64_t>* trials_done =
      progress != nullptr ? &progress->trials_done : nullptr;

  const auto worker = [&](int wi) {
    for (;;) {
      const std::int64_t s = next_shard.fetch_add(1);
      if (s >= l.num_shards) return;
      if (resumed.count(s) != 0) continue;
      if (max_shards > 0) {
        // Claim an execution slot; give the shard back (well: leave it
        // un-run) once the chunk budget is spent.
        int claimed = executed.load();
        do {
          if (claimed >= max_shards) {
            stopped.store(true);
            return;
          }
        } while (!executed.compare_exchange_weak(claimed, claimed + 1));
      } else {
        executed.fetch_add(1);
      }
      if (progress != nullptr) {
        progress->shards_claimed.fetch_add(1, std::memory_order_relaxed);
      }
      Accumulator acc = run_shard(e, l, s, coverage, profile, trials_done);
      if (checkpoint != nullptr) {
        const std::lock_guard<std::mutex> lock(writer_mu);
        *checkpoint << shard_checkpoint_line(e, l, s, acc).dump() << '\n';
        checkpoint->flush();
      }
      if (progress != nullptr) {
        progress->add_coverage(acc);
        progress->steals[static_cast<std::size_t>(wi)].fetch_add(
            1, std::memory_order_relaxed);
        progress->shards_done.fetch_add(1, std::memory_order_relaxed);
      }
      pass.shard_accs[static_cast<std::size_t>(s)] = std::move(acc);
    }
  };

  const int workers = pass_workers(l, threads);
  if (workers <= 1) {
    worker(0);
  } else {
    // A trial that throws stops the pass: the other workers claim no new
    // shard, and the first error is rethrown here, on the caller's thread.
    std::exception_ptr failure;
    const auto guarded = [&](int wi) {
      try {
        worker(wi);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(writer_mu);
        if (!failure) failure = std::current_exception();
        next_shard.store(l.num_shards);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) pool.emplace_back(guarded, t);
    for (std::thread& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
  }

  pass.shards_executed = executed.load();
  pass.complete = !stopped.load();
  pass.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return pass;
}

/// The sampler thread: appends one heartbeat line per interval until told to
/// stop. Owned by run_trials; lives strictly outside the worker barrier's
/// data (it only reads ProgressState).
class ProgressSampler {
 public:
  ProgressSampler(const Experiment& e, const ShardLayout& l, int threads,
                  ProgressState& st, const ProgressSink& sink)
      : e_(e), l_(l), threads_(threads), st_(st), sink_(sink) {
    thread_ = std::thread([this] { loop(); });
  }

  ProgressSampler(const ProgressSampler&) = delete;
  ProgressSampler& operator=(const ProgressSampler&) = delete;

  /// A run that throws stops the sampler without a final record.
  ~ProgressSampler() {
    if (thread_.joinable()) stop();
  }

  /// Stops sampling and writes the final done=true record.
  void finish(bool complete) {
    stop();
    ProgressSample s =
        make_progress_sample(e_, l_, threads_, st_, sink_, elapsed_ms());
    s.done = true;
    s.complete = complete;
    write(s);
  }

 private:
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void write(const ProgressSample& s) {
    *sink_.out << progress_to_json(s).dump() << '\n';
    sink_.out->flush();
  }

  void loop() {
    const auto interval =
        std::chrono::milliseconds(std::max(10, sink_.interval_ms));
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
      lock.unlock();
      write(make_progress_sample(e_, l_, threads_, st_, sink_, elapsed_ms()));
      lock.lock();
    }
  }

  const Experiment& e_;
  const ShardLayout& l_;
  int threads_;
  ProgressState& st_;
  ProgressSink sink_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

RunOutput run_trials(const Experiment& e, const RunOptions& opts) {
  BLUNT_ASSERT(e.trial != nullptr || e.default_trials == 0,
               "experiment " << e.name << " has no trial body");
  const ShardLayout l = resolve_layout(e, opts);

  std::map<std::int64_t, Accumulator> resumed;
  std::ofstream checkpoint_out;
  if (!opts.checkpoint_path.empty()) {
    resumed = load_shard_checkpoint(opts.checkpoint_path, e, l);
    const bool torn = has_torn_tail(opts.checkpoint_path);
    checkpoint_out.open(opts.checkpoint_path, std::ios::app);
    BLUNT_ASSERT(checkpoint_out.good(),
                 "cannot open checkpoint " << opts.checkpoint_path);
    // End the fragment first, or the next shard line would be glued onto it
    // and skipped with it on the following resume.
    if (torn) checkpoint_out << '\n';
  }

  // Telemetry plumbing: the counters always exist when a progress file was
  // requested; trial bodies never see them. The sampler starts before the
  // pass and stops (writing the final done=true record) right after it.
  std::unique_ptr<ProgressState> progress;
  std::ofstream progress_out;
  std::unique_ptr<ProgressSampler> sampler;
  if (!opts.progress_path.empty()) {
    progress = std::make_unique<ProgressState>(pass_workers(l, opts.threads));
    for (const auto& [shard, acc] : resumed) progress->add_coverage(acc);
    progress_out.open(opts.progress_path, std::ios::app);
    BLUNT_ASSERT(progress_out.good(),
                 "cannot open progress file " << opts.progress_path);
    ProgressSink sink;
    sink.out = &progress_out;
    sink.interval_ms = opts.progress_interval_ms;
    sink.resumed_shards = static_cast<std::int64_t>(resumed.size());
    sampler = std::make_unique<ProgressSampler>(e, l, std::max(1, opts.threads),
                                                *progress, sink);
  }

  PassResult main_pass = run_pass(
      e, l, opts.threads, resumed,
      opts.checkpoint_path.empty() ? nullptr : &checkpoint_out, opts.max_shards,
      opts.coverage, opts.profile, progress.get());

  if (sampler != nullptr) {
    sampler->finish(main_pass.complete);
    sampler.reset();
    progress_out.close();
  }

  RunOutput out;
  out.info.trials = l.trials;
  out.info.seed = l.seed;
  out.info.threads = std::max(1, opts.threads);
  out.info.shard_size = l.shard_size;
  out.info.shards_total = static_cast<int>(l.num_shards);
  out.info.shards_resumed = static_cast<int>(resumed.size());
  out.info.shards_executed = main_pass.shards_executed;
  out.info.wall_ms = main_pass.wall_ms;
  out.info.complete = main_pass.complete;
  out.info.coverage = opts.coverage;
  out.info.profile = opts.profile;
  out.merged = fold_shards(std::move(main_pass.shard_accs),
                           opts.coverage ? &out.info.coverage_growth : nullptr);

  if (!opts.checkpoint_path.empty()) {
    checkpoint_out.close();
    if (main_pass.complete) {
      // The run is whole; the checkpoint has served its purpose.
      std::remove(opts.checkpoint_path.c_str());
    }
  }

  if (main_pass.complete && !opts.timing_sweep.empty()) {
    // canonical_dump, not to_json().dump(): profile nanoseconds are advisory
    // wall-clock and legitimately differ between passes; every exact
    // component must still match to the bit.
    const std::string want = out.merged.canonical_dump();
    for (const int t : opts.timing_sweep) {
      PassResult sweep = run_pass(e, l, t, {}, nullptr, 0, opts.coverage,
                                  opts.profile, nullptr);
      out.info.sweep_wall_ms.emplace_back(std::max(1, t), sweep.wall_ms);
      // Built-in determinism self-check: every thread count must produce
      // the same merged bits.
      const std::string got =
          fold_shards(std::move(sweep.shard_accs)).canonical_dump();
      BLUNT_ASSERT(got == want, "timing sweep at " << t << " threads diverged "
                                << "from the main pass — determinism bug");
    }
  }

  return out;
}

}  // namespace blunt::exp
