// E16: the large-n frontier — weakener termination probability and kernel
// throughput as the ABD replication width n grows to 1024.
//
// The theory the paper proves is width-independent: Theorem 4.2's bound on
// the weakener's bad-outcome probability depends on the preamble iteration
// count k and the process count of the program instance, not on how many
// replicas back each register. Before the incremental enabled-index
// overhaul, testing that empirically past n ≈ 256 was impractical — the
// scheduler's per-step enumeration walked every in-transit message. This
// experiment is the overhaul's payoff: a 5 x 3 grid of (n, k) groups, each
// running weakener-over-ABD^k Monte-Carlo trials at replication widths up
// to 1024, with per-group Wilson intervals checked against the per-group
// Theorem 4.2 bound (the instance is the weakener world itself: r = 1
// register access per preamble, n_procs = the world's process count,
// Prob[O] = 1, Prob[O_a] = 1/2).
//
// The finalize additionally times two fixed hotpath-style throughput legs
// at n = 256 and n = 1000 (k = 2): exact step totals are regression-gated
// metrics, the steps/sec rates go to timings_ms, and CI's release job
// computes the n = 256 speedup ratio against the frozen pre-overhaul
// baseline in bench/baselines/BENCH_scaling_probe_pre_overhaul.json.
//
// Group layout is a pure function of the trial index (groups are
// contiguous, equal-size blocks), so merged tallies and counters are
// bit-identical for any --threads value.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "core/bounds.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"

namespace blunt::exp {
namespace {

constexpr int kNs[] = {8, 16, 64, 256, 1024};
constexpr int kKs[] = {1, 2, 4};
constexpr int kNumNs = static_cast<int>(sizeof(kNs) / sizeof(kNs[0]));
constexpr int kNumKs = static_cast<int>(sizeof(kKs) / sizeof(kKs[0]));
constexpr int kNumGroups = kNumNs * kNumKs;
constexpr int kTrialsPerGroup = 8;

// Throughput-leg sizes. Fixed: the step totals are exact metrics.
constexpr int kThroughputK = 2;
constexpr int kThroughputRunsN256 = 4;
constexpr int kThroughputRunsN1000 = 2;

[[nodiscard]] std::string group_name(int n, int k) {
  return "n" + std::to_string(n) + "_k" + std::to_string(k);
}

/// Weakener over ABD^k at replication width n: pids 0-2 run Algorithm 1,
/// pids 3..n-1 are replica-only hosts (same world shape as the scaling
/// probe).
adversary::McInstance make_wide_weakener(std::uint64_t coin_seed, int n,
                                         int k) {
  adversary::McInstance inst;
  inst.world = std::make_unique<sim::World>(
      sim::Config{.metrics = false, .trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(coin_seed));
  auto r = std::make_shared<objects::AbdRegister>(
      "R", *inst.world,
      objects::AbdRegister::Options{.num_processes = n,
                                    .preamble_iterations = k});
  auto c = std::make_shared<objects::AbdRegister>(
      "C", *inst.world,
      objects::AbdRegister::Options{.num_processes = n,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = k});
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*inst.world, *r, *c, *out);
  for (Pid pid = 3; pid < n; ++pid) {
    inst.world->add_process("s" + std::to_string(pid),
                            [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  inst.bad = [out] { return out->looped(); };
  inst.owned = {r, c, out};
  return inst;
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const std::int64_t per_group = ctx.trials / kNumGroups;
  const int g = static_cast<int>(ctx.trial_index / per_group);
  BLUNT_ASSERT(g < kNumGroups, "n_sweep trial index out of range");
  const int n = kNs[g / kNumKs];
  const int k = kKs[g % kNumKs];

  adversary::McInstance inst = make_wide_weakener(ctx.seed, n, k);
  sim::UniformAdversary adv(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
  const sim::RunResult res = inst.world->run(adv);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "n_sweep weakener run did not complete at n=" << n
                                                             << " k=" << k);
  const std::string gname = group_name(n, k);
  acc.tally(gname + ".bad").add(inst.bad());
  acc.counter(gname + ".runs") += 1;
  acc.counter(gname + ".steps") += res.steps;
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

struct ThroughputLeg {
  std::int64_t steps = 0;
  double wall_ms = 0.0;
};

/// Hotpath-style timed leg: one warmup run outside the clock, then `runs`
/// fixed-seed runs inside it. The step total is bit-identity-exact; only
/// the wall clock is advisory.
ThroughputLeg time_throughput(int n, int runs) {
  {
    adversary::McInstance warm = make_wide_weakener(999, n, kThroughputK);
    sim::UniformAdversary adv(999);
    (void)warm.world->run(adv);
  }
  ThroughputLeg leg;
  const double t0 = now_ms();
  for (int i = 0; i < runs; ++i) {
    adversary::McInstance inst = make_wide_weakener(
        static_cast<std::uint64_t>(i) * 2 + 1, n, kThroughputK);
    sim::UniformAdversary adv(static_cast<std::uint64_t>(i) * 2 + 2);
    const sim::RunResult res = inst.world->run(adv);
    BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                 "n_sweep throughput run did not complete at n=" << n);
    leg.steps += res.steps;
  }
  leg.wall_ms = now_ms() - t0;
  return leg;
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& info) {
  print_header("E16: weakener termination probability vs replication width "
               "n (ABD^k)");
  print_rule();
  std::printf("%6s %4s %6s %10s %10s %22s %12s\n", "n", "k", "runs",
              "steps", "bad", "termination (95% CI)", "Thm4.2 <=");
  print_rule();

  obs::JsonArray rows;
  for (int gn = 0; gn < kNumNs; ++gn) {
    for (int gk = 0; gk < kNumKs; ++gk) {
      const int n = kNs[gn];
      const int k = kKs[gk];
      const std::string gname = group_name(n, k);
      const BernoulliEstimator& bad = acc.tally(gname + ".bad");
      const std::int64_t runs = acc.counter_or(gname + ".runs");
      const std::int64_t steps = acc.counter_or(gname + ".steps");
      BLUNT_ASSERT(runs > 0 && bad.trials() == runs,
                   "n_sweep group " << gname << " is empty");
      // The Theorem 4.2 instance for THIS world: the program has n
      // processes (three weakener pids plus the replica hosts), one
      // register access per preamble, Prob[O] = 1, Prob[O_a] = 1/2. The
      // bound weakens as n grows — the point of the row is that the
      // empirical termination probability does not.
      const double bound =
          core::theorem42_bound_f(k, /*r=*/1, n, /*prob_lin=*/1.0,
                                  /*prob_atomic=*/0.5);
      const Interval iv = wilson_interval(bad.successes(), bad.trials());
      // In-experiment watchdog: every group must respect its own bound
      // (the report-level comparator additionally gates the headline
      // instance below).
      BLUNT_ASSERT(iv.lo <= bound, "n_sweep group "
                                       << gname
                                       << " violates its Theorem 4.2 bound");
      std::printf("%6d %4d %6lld %10lld %10.3f    [%5.3f, %5.3f]%6s %12.4f\n",
                  n, k, static_cast<long long>(runs),
                  static_cast<long long>(steps), bad.mean(), 1.0 - iv.hi,
                  1.0 - iv.lo, "", bound);

      set_bernoulli_metric(report, gname + ".bad_probability", bad);
      report.set_metric(gname + ".bound_value", bound);
      report.set_metric_int(gname + ".runs", runs);
      report.set_metric_int(gname + ".steps", steps);

      obs::JsonObject row;
      row["n"] = obs::Json(n);
      row["k"] = obs::Json(k);
      row["runs"] = obs::Json(runs);
      row["steps"] = obs::Json(steps);
      row["bad_probability"] = obs::Json(bad.mean());
      row["bad_lo"] = obs::Json(iv.lo);
      row["bad_hi"] = obs::Json(iv.hi);
      row["thm42_bound"] = obs::Json(bound);
      rows.emplace_back(std::move(row));
    }
  }
  print_rule();
  report.set_metric_json("n_sweep_rows", obs::Json(std::move(rows)));

  // Headline instance for the Theorem 4.2 watchdog: the widest
  // grid point at the paper's preferred k = 2.
  {
    const std::string gname = group_name(1024, 2);
    const BernoulliEstimator& bad = acc.tally(gname + ".bad");
    set_bernoulli_metric(report, "bad_probability", bad);
    set_thm42_instance(report, /*k=*/2, /*r=*/1, /*n=*/1024,
                       /*prob_lin=*/1.0, /*prob_atomic=*/0.5, bad.mean());
  }

  // Throughput legs: the overhaul's frontier numbers. Exact step totals
  // gate regressions; steps/sec is advisory wall clock for the CI release
  // job's before/after ratio.
  print_header("throughput (weakener ABD^2, incremental enabled-index)");
  for (const auto& [n, runs] :
       {std::pair<int, int>{256, kThroughputRunsN256},
        std::pair<int, int>{1000, kThroughputRunsN1000}}) {
    const ThroughputLeg leg = time_throughput(n, runs);
    const double steps_per_sec =
        leg.wall_ms > 0.0
            ? static_cast<double>(leg.steps) / (leg.wall_ms / 1000.0)
            : 0.0;
    std::printf("  n=%-5d %8lld steps  %8.1f ms  %12.0f steps/sec\n", n,
                static_cast<long long>(leg.steps), leg.wall_ms,
                steps_per_sec);
    const std::string key = "throughput_n" + std::to_string(n);
    report.set_metric_int(key + ".steps", leg.steps);
    report.add_timing_ms(key + ".wall", leg.wall_ms);
    report.add_timing_ms(key + ".steps_per_sec", steps_per_sec);
  }
  print_rule();

  report.set_environment_int("trials_per_group", static_cast<int>(
                                 info.trials / kNumGroups));
  report.merge_registry(acc.registry());
  // One instrumented full-detail run at the paper's n = 3 keeps the
  // registry section populated like every other report.
  merge_probe(report, run_instrumented_weakener(/*coin_seed=*/0,
                                                /*sched_seed=*/0,
                                                /*k=*/kThroughputK)
                          .snapshot);
  return 0;
}

}  // namespace

Experiment make_n_sweep_experiment() {
  Experiment e;
  e.name = "n_sweep";
  e.description =
      "large-n frontier: weakener termination probability over ABD^k at "
      "replication widths 8..1024 with per-group Theorem 4.2 watchdogs, "
      "plus n=256/n=1000 kernel throughput legs";
  e.default_trials = kTrialsPerGroup * kNumGroups;
  e.default_seed = 13;
  e.resolve_trials = [](std::int64_t requested) {
    std::int64_t t =
        requested >= 0 ? requested : kTrialsPerGroup * kNumGroups;
    if (t < kNumGroups) t = kNumGroups;
    const std::int64_t rem = t % kNumGroups;
    if (rem != 0) t += kNumGroups - rem;
    return t;
  };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
