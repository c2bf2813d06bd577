// The simulator workloads: mc_paper, wide_n and chaos_lin.
//
// Each one derives a fixed trial set (a "pass") from the seed and runs it
// again and again for the measured window, checking every run's outputs on
// every pass. The untraced run reports the end-to-end metrics. The traced
// run alternates untraced and traced passes over the same trials, checks
// that the externally driven step loop reproduces World::run run by run,
// and reports the per-layer metrics.
#include <array>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "exp/engine.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "layers.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/spec.hpp"
#include "lin/strong.hpp"
#include "objects/abd.hpp"
#include "objects/israeli_li.hpp"
#include "objects/vitanyi.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using blunt::Pid;
namespace objects = blunt::objects;
namespace fault = blunt::fault;
namespace lin = blunt::lin;

// mc_paper: 3000 trials per k at n = 3, so one seed's mean trial cost sits
// within a fraction of a percent of another's.
constexpr int kMcTrialsPerK = 3000;
constexpr int kMcKs = 3;
// wide_n: ABD^2 at n_sweep's widest point.
constexpr int kWideN = 1024;
constexpr int kWideK = 2;
constexpr int kWideTrials = 12;
// chaos_lin: each trial runs one fault plan against each of four objects.
// A single-object trial would mix slow ABD runs with fast shared-memory
// ones, and the latency median would sit in the gap between the two.
constexpr int kChaosTrials = 160;
// Above every per-channel loss budget fault::random_plan draws, so bounded
// retransmission keeps every ABD operation live.
constexpr int kMaxRetransmits = 12;
// Set-up repetitions behind the reported median.
constexpr int kSetupReps = 5;

enum class Kind { kWeakener, kChaosAbd, kChaosVitanyi, kChaosIsraeliLi };

// Streams of derive(seed, stream, run index).
enum Stream : std::uint64_t { kCoin = 1, kSched = 2, kPlan = 3 };

/// One world run: which world, and the seeds derived for it.
struct RunInput {
  Kind kind = Kind::kWeakener;
  int k = 1;  // preamble iterations
  int n = 3;  // ABD replication width (weakener worlds)
  std::uint64_t coin = 0;
  std::uint64_t sched = 0;
  std::uint64_t plan = 0;  // chaos kinds only
};

constexpr std::size_t kMaxRuns = 4;

/// A trial: one weakener run, or one chaos run per object.
struct TrialInput {
  std::array<RunInput, kMaxRuns> runs{};
  std::size_t count = 0;
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kWeakener:
      return "weakener";
    case Kind::kChaosAbd:
      return "abd";
    case Kind::kChaosVitanyi:
      return "vitanyi";
    case Kind::kChaosIsraeliLi:
      return "israeli_li";
  }
  return "?";
}

std::string describe(const TrialInput& t, std::size_t trial, std::size_t run) {
  const RunInput& in = t.runs[run];
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "trial=%zu run=%zu kind=%s k=%d n=%d coin_seed=%" PRIu64
                " sched_seed=%" PRIu64 " plan_seed=%" PRIu64,
                trial, run, kind_name(in.kind), in.k, in.n, in.coin, in.sched,
                in.plan);
  return buf;
}

struct RunOutcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  bool plan_ok = true;
  bool lin_checked = false;
  bool lin_ok = false;
  bool chain_checked = false;
  bool chain_ok = false;
};

struct TrialOutcome {
  std::array<RunOutcome, kMaxRuns> runs{};
  bool bad = false;  // weakener outcome in the bad set B
  std::int64_t faults = 0;
  std::int64_t retransmissions = 0;
  std::int64_t wall_ns = 0;  // the whole trial body

  [[nodiscard]] std::int64_t steps() const {
    std::int64_t s = 0;
    for (const RunOutcome& r : runs) s += r.steps;
    return s;
  }
};

sim::RunResult run_world(sim::World& w, sim::Adversary& adv,
                         TrialTrace* trace) {
  return trace == nullptr ? w.run(adv) : traced_run(w, adv, *trace);
}

// -- Weakener over ABD^k ------------------------------------------------------

struct WeakenerWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> r;
  std::unique_ptr<objects::AbdRegister> c;
  std::unique_ptr<blunt::programs::WeakenerOutcome> out;
};

/// Algorithm 1 over registers R and C, each ABD^k replicated n wide. Pids
/// 0-2 run the weakener and pids 3..n-1 only host replicas. At n = 3 this is
/// the trial world of theorem42_bound, abd_k_sweep and hotpath; wider, it is
/// n_sweep's. The fidelity self-test holds it to their committed counts.
WeakenerWorld build_weakener(std::uint64_t coin, int k, int n) {
  WeakenerWorld ww;
  sim::Config cfg;
  cfg.trace_detail = sim::TraceDetail::kNone;
  ww.world = std::make_unique<sim::World>(
      cfg, std::make_unique<sim::SeededCoin>(coin));
  objects::AbdRegister::Options opts;
  opts.num_processes = n;
  opts.preamble_iterations = k;
  ww.r = std::make_unique<objects::AbdRegister>("R", *ww.world, opts);
  opts.initial = sim::Value(std::int64_t{-1});
  ww.c = std::make_unique<objects::AbdRegister>("C", *ww.world, opts);
  ww.out = std::make_unique<blunt::programs::WeakenerOutcome>();
  blunt::programs::install_weakener(*ww.world, *ww.r, *ww.c, *ww.out);
  for (Pid pid = 3; pid < n; ++pid) {
    ww.world->add_process("s" + std::to_string(pid),
                          [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  return ww;
}

void weakener_run(const RunInput& in, TrialTrace* trace, RunOutcome& out,
                  TrialOutcome& trial) {
  WeakenerWorld ww = span(trace, Span::kWorldBuild,
                          [&] { return build_weakener(in.coin, in.k, in.n); });
  sim::UniformAdversary adv(in.sched);
  const sim::RunResult res = run_world(*ww.world, adv, trace);
  out.status = res.status;
  out.steps = res.steps;
  trial.bad = ww.out->looped();
}

// -- Chaos: fault plans over ABD, Vitanyi-Awerbuch and Israeli-Li ------------

struct ChaosWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> abd;
  std::unique_ptr<objects::VitanyiRegister> va;
  std::unique_ptr<objects::IsraeliLiRegister> il;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// Quorum-preserving plans for n = 3. The shared-memory registers have no
/// channels, so their plans are crash-only.
fault::FaultPlan make_plan(const RunInput& in) {
  fault::PlanOptions opts;
  if (in.kind != Kind::kChaosAbd) {
    opts.max_loss_permille = 0;
    opts.max_dup_permille = 0;
    opts.max_partitions = 0;
  }
  return fault::random_plan(in.plan, opts);
}

/// chaos_soak's worlds: each of three processes writes then reads one
/// register (Israeli-Li: two readers read twice, the writer writes twice).
ChaosWorld build_chaos(const RunInput& in, const fault::FaultPlan& plan) {
  ChaosWorld cw;
  sim::Config cfg;
  cfg.max_crashes = static_cast<int>(plan.crashes.size());
  cfg.trace_detail = sim::TraceDetail::kNone;
  cw.world = std::make_unique<sim::World>(
      cfg, std::make_unique<sim::SeededCoin>(in.coin));
  sim::World& w = *cw.world;
  if (in.kind == Kind::kChaosAbd) {
    objects::AbdRegister::Options opts;
    opts.num_processes = plan.num_processes;
    opts.preamble_iterations = in.k;
    opts.max_retransmits = kMaxRetransmits;
    cw.abd = std::make_unique<objects::AbdRegister>("R", w, opts);
    cw.injector = std::make_unique<fault::FaultInjector>(plan, w);
    cw.abd->set_fault_layer(cw.injector.get());
    objects::AbdRegister& reg = *cw.abd;
    for (Pid pid = 0; pid < plan.num_processes; ++pid) {
      w.add_process("p" + std::to_string(pid),
                    [&reg, pid](sim::Proc p) -> sim::Task<void> {
                      co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                      (void)co_await reg.read(p);
                    });
    }
  } else if (in.kind == Kind::kChaosVitanyi) {
    objects::VitanyiRegister::Options opts;
    opts.num_processes = 3;
    opts.preamble_iterations = in.k;
    cw.va = std::make_unique<objects::VitanyiRegister>("R", w, opts);
    objects::VitanyiRegister& reg = *cw.va;
    for (Pid pid = 0; pid < 3; ++pid) {
      w.add_process("p" + std::to_string(pid),
                    [&reg, pid](sim::Proc p) -> sim::Task<void> {
                      co_await reg.write(p, sim::Value(std::int64_t{pid}));
                      (void)co_await reg.read(p);
                    });
    }
  } else {
    objects::IsraeliLiRegister::Options opts;
    opts.num_readers = 2;
    opts.writer = 2;
    opts.preamble_iterations = in.k;
    cw.il = std::make_unique<objects::IsraeliLiRegister>("R", w, opts);
    objects::IsraeliLiRegister& reg = *cw.il;
    for (Pid pid = 0; pid < 2; ++pid) {
      w.add_process("r" + std::to_string(pid),
                    [&reg](sim::Proc p) -> sim::Task<void> {
                      (void)co_await reg.read(p);
                      (void)co_await reg.read(p);
                    });
    }
    w.add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, sim::Value(std::int64_t{1}));
      co_await reg.write(p, sim::Value(std::int64_t{2}));
    });
  }
  return cw;
}

void chaos_run(const RunInput& in, TrialTrace* trace, RunOutcome& out,
               TrialOutcome& trial) {
  const fault::FaultPlan plan = span(trace, Span::kFaultPlan, [&] {
    fault::FaultPlan p = make_plan(in);
    out.plan_ok = p.validate().empty();
    return p;
  });
  if (!out.plan_ok) return;
  ChaosWorld cw = span(trace, Span::kWorldBuild,
                       [&] { return build_chaos(in, plan); });
  sim::UniformAdversary uniform(in.sched);
  fault::ChaosAdversary adv(uniform, plan, cw.injector.get());
  const sim::RunResult res = run_world(*cw.world, adv, trace);
  out.status = res.status;
  out.steps = res.steps;
  if (cw.injector != nullptr) {
    const fault::FaultInjector& inj = *cw.injector;
    trial.faults += inj.losses_injected() + inj.duplicates_injected() +
                    inj.partitions_opened() + inj.crashes_injected();
    trial.retransmissions += cw.abd->retransmissions();
  } else {
    for (Pid pid = 0; pid < cw.world->process_count(); ++pid) {
      trial.faults += cw.world->crashed(pid) ? 1 : 0;
    }
  }
  if (res.status != sim::RunStatus::kCompleted) return;

  const lin::History h = span(trace, Span::kLinHistory, [&] {
    return lin::History::from_world(*cw.world);
  });
  if (trace != nullptr) trace->ops += h.size();
  const lin::RegisterSpec spec;
  out.lin_checked = true;
  out.lin_ok = span(trace, Span::kLinCheck, [&] {
    return lin::check_linearizable(h, spec).linearizable;
  });
  if (cw.abd != nullptr) {
    // Theorem 5.1: ABD is tail strongly linearizable w.r.t. Π_ABD.
    out.chain_checked = true;
    out.chain_ok = span(trace, Span::kLinChain, [&] {
      return lin::check_prefix_chain(h, spec, cw.abd->preamble_mapping()).ok;
    });
  }
}

TrialOutcome run_trial(const TrialInput& in, TrialTrace* trace) {
  TrialOutcome out;
  const std::int64_t t0 = now_ns();
  for (std::size_t j = 0; j < in.count; ++j) {
    if (in.runs[j].kind == Kind::kWeakener) {
      weakener_run(in.runs[j], trace, out.runs[j], out);
    } else {
      chaos_run(in.runs[j], trace, out.runs[j], out);
    }
  }
  out.wall_ns = now_ns() - t0;
  if (trace != nullptr) {
    (*trace)[Span::kTrial].ns += out.wall_ns;
    ++(*trace)[Span::kTrial].calls;
  }
  return out;
}

// -- Passes ------------------------------------------------------------------

struct Workload {
  std::string name;
  /// 1: a plain serial loop; more: exp::run_trials with that many workers.
  int threads = 1;
  std::vector<TrialInput> pass;
  /// How many leading trials of the pass set-up runs as warm-up.
  std::size_t warmup = 0;
};

struct Pass {
  std::int64_t wall_ns = 0;
  std::vector<TrialOutcome> outcomes;
};

Pass run_pass(const Workload& w, std::size_t count, std::uint64_t seed,
              std::vector<TrialTrace>* traces) {
  Pass p;
  p.outcomes.resize(count);
  if (traces != nullptr) traces->assign(count, TrialTrace{});
  const auto body = [&](std::size_t i) {
    TrialTrace* trace = nullptr;
    if (traces != nullptr) {
      trace = &(*traces)[i];
      trace->id = static_cast<std::int64_t>(i);
    }
    p.outcomes[i] = run_trial(w.pass[i], trace);
  };
  const std::int64_t t0 = now_ns();
  if (w.threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
  } else {
    blunt::exp::Experiment e;
    e.name = w.name;
    e.trial = [&body](const blunt::exp::TrialContext& ctx,
                      blunt::exp::Accumulator&) {
      body(static_cast<std::size_t>(ctx.trial_index));
    };
    blunt::exp::RunOptions opts;
    opts.threads = w.threads;
    opts.trials = static_cast<std::int64_t>(count);
    opts.has_seed = true;
    opts.seed = seed;
    (void)blunt::exp::run_trials(e, opts);
  }
  p.wall_ns = now_ns() - t0;
  return p;
}

std::int64_t pass_steps(const Pass& p) {
  std::int64_t steps = 0;
  for (const TrialOutcome& o : p.outcomes) steps += o.steps();
  return steps;
}

/// Every run completes; every history checked passes.
void check_pass(const Workload& w, const Pass& p, Result& r) {
  for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
    for (std::size_t j = 0; j < w.pass[i].count; ++j) {
      const RunOutcome& o = p.outcomes[i].runs[j];
      const auto where = [&] { return describe(w.pass[i], i, j); };
      if (w.pass[i].runs[j].kind != Kind::kWeakener) {
        r.check(o.plan_ok, where, "fault plan fails FaultPlan::validate");
        if (!o.plan_ok) continue;
      }
      r.check(o.status == sim::RunStatus::kCompleted, where,
              "run did not complete");
      if (o.lin_checked) {
        r.check(o.lin_ok, where, "history is not linearizable (Wing-Gong)");
      }
      if (o.chain_checked) {
        r.check(o.chain_ok, where,
                "history fails the tail-strong chain check against "
                "AbdRegister::preamble_mapping");
      }
    }
  }
}

/// Set-up: input generation plus a warm-up over the pass's first trials,
/// repeated and reported as a median.
template <class Make>
std::pair<Workload, double> set_up(const Options& o, Make&& make,
                                   Result& r) {
  return timed_setup(
      kSetupReps,
      [&] {
        Workload w = make(o.seed);
        (void)run_pass(w, w.warmup, o.seed, nullptr);
        return w;
      },
      r);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// The untraced run: passes until the window is spent, then the end-to-end
/// metrics. Returns the first pass for workload-specific checks.
Pass measure(const Workload& w, double setup_s, const Options& o,
             Result& r) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<double> trials_per_s;
  std::vector<double> steps_per_s;
  LatencyHistogram latency;
  Pass first;
  std::int64_t first_steps = 0;
  std::int64_t last_wall = 0;
  int passes = 0;
  do {
    Pass p = run_pass(w, w.pass.size(), o.seed, nullptr);
    check_pass(w, p, r);
    const std::int64_t steps = pass_steps(p);
    const double secs = static_cast<double>(p.wall_ns) / 1e9;
    trials_per_s.push_back(static_cast<double>(w.pass.size()) / secs);
    steps_per_s.push_back(static_cast<double>(steps) / secs);
    for (const TrialOutcome& t : p.outcomes) latency.add(t.wall_ns);
    last_wall = p.wall_ns;
    if (passes++ == 0) {
      first_steps = steps;
      first = std::move(p);
    } else {
      r.check(steps == first_steps,
              [&] { return "pass=" + std::to_string(passes - 1); },
              "pass step total differs from the first pass's " +
                  std::to_string(first_steps) + " (nondeterminism)");
    }
  } while (now_ns() + last_wall <= deadline);

  r.metric("trials_per_s", median(trials_per_s), "trials/s");
  r.metric("trial_us_p50", latency.quantile_us(0.50), "us");
  r.metric("trial_us_p99", latency.quantile_us(0.99), "us");
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb",
           static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
  r.info("steps_per_s " + fmt("%.1f", median(steps_per_s)) +
         " steps/s (median over passes)");
  r.info("passes " + std::to_string(passes) + " of " +
         std::to_string(w.pass.size()) + " trials on " +
         std::to_string(w.threads) + " thread(s); per-pass trials/s p10 " +
         fmt("%.1f", quantile(trials_per_s, 0.1)) + " p90 " +
         fmt("%.1f", quantile(trials_per_s, 0.9)));
  r.info("latency samples " + std::to_string(latency.count()));
  r.info("exact steps_per_pass " + std::to_string(first_steps));
  return first;
}

/// The traced run: alternating untraced and traced passes over the same
/// trials, then the per-layer metrics.
void measure_traced(const Workload& w, const Options& o, Result& r) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::size_t n = w.pass.size();
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> efficiency;
  std::vector<TrialTrace> last;
  TrialTrace sum;
  Pass reference;
  int rounds = 0;
  do {
    std::vector<TrialTrace> traces;
    Pass u;
    Pass t;
    // Alternate which side runs first so warm caches favour neither.
    if (rounds % 2 == 0) {
      u = run_pass(w, n, o.seed, nullptr);
      t = run_pass(w, n, o.seed, &traces);
    } else {
      t = run_pass(w, n, o.seed, &traces);
      u = run_pass(w, n, o.seed, nullptr);
    }
    check_pass(w, u, r);
    check_pass(w, t, r);
    untraced_wall.push_back(static_cast<double>(u.wall_ns));
    traced_wall.push_back(static_cast<double>(t.wall_ns));
    if (w.threads > 1) {
      std::int64_t body_ns = 0;
      for (const TrialOutcome& x : u.outcomes) body_ns += x.wall_ns;
      efficiency.push_back(static_cast<double>(body_ns) /
                           (w.threads * static_cast<double>(u.wall_ns)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < w.pass[i].count; ++j) {
        const RunOutcome& a = u.outcomes[i].runs[j];
        const RunOutcome& b = t.outcomes[i].runs[j];
        r.check(a.steps == b.steps && a.status == b.status,
                [&] { return describe(w.pass[i], i, j); },
                "traced step loop diverged from World::run");
      }
      r.check(u.outcomes[i].bad == t.outcomes[i].bad,
              [&] { return describe(w.pass[i], i, 0); },
              "traced run reached a different weakener outcome");
    }
    const TrialTrace pass_sum = total(traces);
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
      sum.spans[s].ns += pass_sum.spans[s].ns;
      sum.spans[s].calls += pass_sum.spans[s].calls;
    }
    sum.steps += pass_sum.steps;
    sum.events_offered += pass_sum.events_offered;
    sum.ops += pass_sum.ops;
    if (rounds++ == 0) reference = std::move(u);
    last = std::move(traces);
  } while (now_ns() + static_cast<std::int64_t>(untraced_wall.back() +
                                                traced_wall.back()) <=
           deadline);

  LayerMetrics lm;
  lm.from_spans(sum, static_cast<std::int64_t>(n) * rounds);
  lm.steps_per_s = static_cast<double>(pass_steps(reference)) /
                   (median(untraced_wall) / 1e9);
  std::int64_t faults = 0;
  std::int64_t resends = 0;
  for (const TrialOutcome& x : reference.outcomes) {
    faults += x.faults;
    resends += x.retransmissions;
  }
  lm.injected_per_trial = static_cast<double>(faults) / static_cast<double>(n);
  lm.retransmissions_per_trial =
      static_cast<double>(resends) / static_cast<double>(n);
  lm.parallel_efficiency = median(efficiency);
  lm.trace_overhead =
      (median(traced_wall) - median(untraced_wall)) / median(untraced_wall);
  lm.clock_ns = clock_read_ns();
  lm.emit(r);

  const TrialTrace one = total(last);
  r.info("traced rounds " + std::to_string(rounds) + " of " +
         std::to_string(n) + " trials");
  r.info("exact per pass: steps " + std::to_string(one.steps) +
         ", events offered " + std::to_string(one.events_offered) +
         ", deliveries " + std::to_string(one[Span::kDeliver].calls) +
         ", resumes " + std::to_string(one[Span::kExecuteResume].calls) +
         ", history ops " + std::to_string(one.ops) + ", faults " +
         std::to_string(faults) + ", resends " + std::to_string(resends));
  r.info("self time: sim.run " +
         fmt("%.1f", static_cast<double>(one.self_ns(Span::kRun)) /
                         static_cast<double>(one.steps)) +
         " ns/step, trial " +
         fmt("%.2f", static_cast<double>(one.self_ns(Span::kTrial)) /
                         static_cast<double>(n) / 1e3) +
         " us/trial");
  if (!o.spans_path.empty()) write_spans(o.spans_path, w.name, last);
}

template <class Make, class After>
void run_sim(const Options& o, Result& r, Make&& make, After&& after) {
  auto [w, setup_s] = set_up(o, make, r);
  if (o.trace) {
    measure_traced(w, o, r);
  } else {
    const Pass first = measure(w, setup_s, o, r);
    after(w, first);
  }
}

/// Total steps of `runs` weakener runs with hotpath's seeds (coin 2i+1,
/// scheduler 2i+2), every one required to complete.
std::int64_t fixed_seed_steps(int k, int n, int runs, Result& r) {
  std::int64_t steps = 0;
  for (int i = 0; i < runs; ++i) {
    const auto coin = static_cast<std::uint64_t>(i) * 2 + 1;
    WeakenerWorld ww = build_weakener(coin, k, n);
    sim::UniformAdversary adv(coin + 1);
    const sim::RunResult res = ww.world->run(adv);
    r.check(res.status == sim::RunStatus::kCompleted,
            [&] {
              return "fidelity run k=" + std::to_string(k) +
                     " n=" + std::to_string(n) +
                     " coin_seed=" + std::to_string(coin);
            },
            "run did not complete");
    steps += res.steps;
  }
  return steps;
}

void check_fidelity(const char* name, std::int64_t got, std::int64_t want,
                    Result& r) {
  r.check(got == want, [&] { return std::string("fidelity ") + name; },
          "got " + std::to_string(got) + ", committed baseline has " +
              std::to_string(want));
  r.info(std::string("fidelity ") + name + " " + std::to_string(got) +
         (got == want ? " (matches)" : " (MISMATCH)"));
}

TrialInput weakener_trial(std::uint64_t seed, std::uint64_t i, int k, int n) {
  TrialInput t;
  t.count = 1;
  t.runs[0].k = k;
  t.runs[0].n = n;
  t.runs[0].coin = derive(seed, kCoin, i);
  t.runs[0].sched = derive(seed, kSched, i);
  return t;
}

}  // namespace

void run_mc_paper(const Options& o, Result& r) {
  const auto make = [](std::uint64_t seed) {
    Workload w;
    w.name = "mc_paper";
    w.threads = 2;
    for (std::uint64_t i = 0; i < kMcTrialsPerK * kMcKs; ++i) {
      w.pass.push_back(
          weakener_trial(seed, i, 1 + static_cast<int>(i % kMcKs), 3));
    }
    w.warmup = w.pass.size() / 2;
    return w;
  };
  run_sim(o, r, make, [&](const Workload& w, const Pass& first) {
    // The exact game values of ABD^1, ABD^2 and ABD^3 bound what any
    // adversary, the uniform one included, can force.
    const double value[kMcKs] = {1.0, 5.0 / 8.0, 5.0 / 9.0};
    for (int k = 1; k <= kMcKs; ++k) {
      std::int64_t bad = 0;
      std::int64_t trials = 0;
      for (std::size_t i = 0; i < w.pass.size(); ++i) {
        if (w.pass[i].runs[0].k != k) continue;
        ++trials;
        bad += first.outcomes[i].bad ? 1 : 0;
      }
      const blunt::Interval iv = blunt::wilson_interval(bad, trials);
      const std::string group = "group k=" + std::to_string(k);
      r.check(iv.lo <= value[k - 1], [&] { return group; },
              "Wilson interval [" + fmt("%.4f", iv.lo) + ", " +
                  fmt("%.4f", iv.hi) + "] lies above the exact value " +
                  fmt("%.4f", value[k - 1]));
      r.info(group + " bad " + std::to_string(bad) + "/" +
             std::to_string(trials) + " Wilson [" + fmt("%.4f", iv.lo) +
             ", " + fmt("%.4f", iv.hi) + "] exact " +
             fmt("%.4f", value[k - 1]));
    }
    // bench/baselines/BENCH_hotpath.json: steps_total_k1, steps_total_k2.
    check_fidelity("steps_total_k1", fixed_seed_steps(1, 3, 3000, r), 297292,
                   r);
    check_fidelity("steps_total_k2", fixed_seed_steps(2, 3, 1500, r), 229722,
                   r);
  });
}

void run_wide_n(const Options& o, Result& r) {
  const auto make = [](std::uint64_t seed) {
    Workload w;
    w.name = "wide_n";
    for (std::uint64_t i = 0; i < kWideTrials; ++i) {
      w.pass.push_back(weakener_trial(seed, i, kWideK, kWideN));
    }
    w.warmup = 1;
    return w;
  };
  run_sim(o, r, make, [&](const Workload&, const Pass&) {
    // bench/baselines/BENCH_n_sweep.json: throughput_n1000.steps.
    check_fidelity("throughput_n1000.steps", fixed_seed_steps(2, 1000, 2, r),
                   73317, r);
  });
}

void run_chaos_lin(const Options& o, Result& r) {
  const auto make = [](std::uint64_t seed) {
    // ABD^1 and ABD^2 under full fault plans; the shared-memory registers
    // at k = 2 under crash-only plans, as in chaos_soak.
    constexpr std::array<std::pair<Kind, int>, kMaxRuns> kRuns = {
        {{Kind::kChaosAbd, 1},
         {Kind::kChaosAbd, 2},
         {Kind::kChaosVitanyi, 2},
         {Kind::kChaosIsraeliLi, 2}}};
    Workload w;
    w.name = "chaos_lin";
    w.threads = 2;
    for (std::uint64_t i = 0; i < kChaosTrials; ++i) {
      TrialInput t;
      t.count = kMaxRuns;
      for (std::size_t j = 0; j < kMaxRuns; ++j) {
        const std::uint64_t run = i * kMaxRuns + j;
        t.runs[j].kind = kRuns[j].first;
        t.runs[j].k = kRuns[j].second;
        t.runs[j].coin = derive(seed, kCoin, run);
        t.runs[j].sched = derive(seed, kSched, run);
        t.runs[j].plan = derive(seed, kPlan, run);
      }
      w.pass.push_back(t);
    }
    w.warmup = w.pass.size();
    return w;
  };
  run_sim(o, r, make, [](const Workload&, const Pass&) {});
}

}  // namespace perfbench
