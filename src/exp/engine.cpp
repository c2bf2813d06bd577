#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace blunt::exp {
namespace {

/// The resolved shard structure of a run: a pure function of (experiment,
/// options), never of the thread count.
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
/// (experiment, layout, shard index).
[[nodiscard]] Accumulator run_shard(const Experiment& e, const ShardLayout& l,
                                    std::int64_t shard) {
  Accumulator acc;
  const std::int64_t begin = shard * l.shard_size;
  const std::int64_t end = std::min(l.trials, begin + l.shard_size);
  for (std::int64_t i = begin; i < end; ++i) {
    TrialContext ctx;
    ctx.trial_index = i;
    ctx.experiment_seed = l.seed;
    ctx.trials = l.trials;
    ctx.seed = derive_seed(e.seed_derivation, l.seed, i);
    e.trial(ctx, acc);
  }
  return acc;
}

/// The fixed merge tree: left fold in ascending shard index.
[[nodiscard]] Accumulator fold_shards(
    const std::vector<Accumulator>& shard_accs) {
  Accumulator merged;
  for (const Accumulator& acc : shard_accs) merged.merge(acc);
  return merged;
}

struct PassResult {
  std::vector<Accumulator> shard_accs;  // indexed by shard
  double wall_ms = 0.0;
};

/// One full pass over the shard space at `threads` workers, capped by the
/// shard count.
[[nodiscard]] PassResult run_pass(const Experiment& e, const ShardLayout& l,
                                  int threads) {
  PassResult pass;
  pass.shard_accs.resize(static_cast<std::size_t>(l.num_shards));

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> next_shard{0};
  const auto worker = [&] {
    for (;;) {
      const std::int64_t s = next_shard.fetch_add(1);
      if (s >= l.num_shards) return;
      pass.shard_accs[static_cast<std::size_t>(s)] = run_shard(e, l, s);
    }
  };

  const int workers = static_cast<int>(std::min<std::int64_t>(
      std::max(1, threads), std::max<std::int64_t>(1, l.num_shards)));
  if (workers <= 1) {
    worker();
  } else {
    // A trial that throws stops the pass: the other workers claim no new
    // shard, and the first error is rethrown here, on the caller's thread.
    std::mutex failure_mu;
    std::exception_ptr failure;
    const auto guarded = [&] {
      try {
        worker();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure) failure = std::current_exception();
        next_shard.store(l.num_shards);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) pool.emplace_back(guarded);
    for (std::thread& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
  }

  pass.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return pass;
}

}  // namespace

RunOutput run_trials(const Experiment& e, const RunOptions& opts) {
  const ShardLayout l = resolve_layout(e, opts);
  if (e.trial == nullptr && l.trials > 0) {
    throw std::invalid_argument(
        "experiment " + e.name + " has no trial body and takes no trials, "
        "but " + std::to_string(l.trials) + " were requested");
  }
  const PassResult pass = run_pass(e, l, opts.threads);

  RunOutput out;
  out.info.trials = l.trials;
  out.info.seed = l.seed;
  out.info.threads = std::max(1, opts.threads);
  out.info.shard_size = l.shard_size;
  out.info.shards_total = static_cast<int>(l.num_shards);
  out.info.wall_ms = pass.wall_ms;
  out.merged = fold_shards(pass.shard_accs);
  return out;
}

}  // namespace blunt::exp
