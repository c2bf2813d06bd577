// E5 (Theorem 4.2): the quantitative blunting bound, tabulated — plus a
// parallel Monte-Carlo component added with the experiment engine.
//
//   Prob[O^k] <= Prob[O_a] + (1 − (max{0,k−r}/k)^(n−1)) (Prob[O] − Prob[O_a])
//
// Series reproduced (all closed-form, computed in finalize):
//   * the adversary-advantage fraction 1 − ((k−r)/k)^(n−1) vs k for several
//     (r, n) — it is 1 (vacuous) while k <= r and decays to 0 as k grows;
//   * the bound instantiated with the weakener's Prob[O_a] = 1/2,
//     Prob[O] = 1 — the k-sweep's guarantee column;
//   * the trade-off knob: the smallest k achieving a target fraction
//     (Section 4.2's time-vs-probability trade-off).
//
// The trial phase is a random-scheduler Monte Carlo of the weakener over
// ABD² (SplitMix64-derived seeds, the engine's default derivation): a large
// embarrassingly-parallel sample whose bad-outcome rate must sit inside the
// k=2 bound. Its `timings_ms.engine_trials` with and without --coverage is
// the same-host measure of the coverage layer's cost.
#include <cstdio>

#include "common/assert.hpp"
#include "core/bounds.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"

namespace blunt::exp {
namespace {

struct Cfg {
  int r;
  int n;
};

constexpr Cfg kCfgs[] = {{1, 2}, {1, 3}, {2, 3}, {4, 3}, {1, 8}, {8, 8}};
constexpr int kMcK = 2;  // the MC component samples the weakener over ABD²

void trial(const TrialContext& ctx, Accumulator& acc) {
  // Trial bodies never read the trace, so they run at kNone — bit-identical
  // execution (hotpath_determinism_test), none of the trace allocation.
  adversary::McInstance inst =
      make_abd_weakener(ctx.seed, kMcK, kWeakenerNumProcesses,
                        /*metrics=*/false, sim::TraceDetail::kNone);
  sim::UniformAdversary adv(splitmix64(ctx.seed));
  if (ctx.coverage) {
    // The fingerprinter forwards the inner adversary's choices verbatim, so
    // the execution (and mc_bad) is identical to the uninstrumented branch.
    obs::ScheduleFingerprinter fp(adv);
    const sim::RunResult res = inst.world->run(fp);
    BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                 "theorem42_bound MC trial did not complete: "
                     << to_string(res.status));
    acc.tally("mc_bad").add(inst.bad());
    record_coverage(acc, fp, *inst.world);
    return;
  }
  const sim::RunResult res = inst.world->run(adv);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "theorem42_bound MC trial did not complete: "
                   << to_string(res.status));
  acc.tally("mc_bad").add(inst.bad());
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& info) {
  print_header("E5: Theorem 4.2 bound tables");

  std::printf("\nadversary-advantage fraction 1 - (max{0,k-r}/k)^(n-1):\n");
  print_rule();
  std::printf("%6s", "k");
  for (const Cfg& c : kCfgs) std::printf("  r=%d,n=%d", c.r, c.n);
  std::printf("\n");
  print_rule();
  for (const int k : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128}) {
    std::printf("%6d", k);
    for (const Cfg& c : kCfgs) {
      const double f =
          1.0 - core::prob_x_lower_bound(k, c.r, c.n).to_double();
      std::printf("  %7.4f", f);
    }
    std::printf("\n");
  }

  std::printf(
      "\nbound on Prob[bad] for the weakener instance (Prob[O_a]=1/2, "
      "Prob[O]=1, r=1, n=3):\n");
  print_rule();
  std::printf("%6s %16s %18s\n", "k", "bound (exact)", "termination >=");
  print_rule();
  for (const int k : {1, 2, 3, 4, 8, 16, 32, 64}) {
    const Rational b =
        core::theorem42_bound(k, 1, 3, Rational(1), Rational(1, 2));
    std::printf("%6d %16s %18s\n", k, b.to_string().c_str(),
                (Rational(1) - b).to_string().c_str());
  }

  std::printf(
      "\nsmallest k for a target adversary-advantage fraction (Section 4.2 "
      "trade-off):\n");
  print_rule();
  std::printf("%10s", "eps");
  for (const Cfg& c : kCfgs) std::printf("  r=%d,n=%d", c.r, c.n);
  std::printf("\n");
  print_rule();
  for (const double eps : {0.5, 0.25, 0.1, 0.05, 0.01}) {
    std::printf("%10.2f", eps);
    for (const Cfg& c : kCfgs) {
      std::printf("  %7d", core::k_for_fraction(eps, c.r, c.n));
    }
    std::printf("\n");
  }

  const BernoulliEstimator& mc = acc.tally("mc_bad");
  const Rational k2 =
      core::theorem42_bound(kMcK, 1, 3, Rational(1), Rational(1, 2));
  std::printf(
      "\nrandom-scheduler MC over ABD^%d: bad rate %.4f (%lld/%lld trials) "
      "<= bound %s\n",
      kMcK, mc.mean(), static_cast<long long>(mc.successes()),
      static_cast<long long>(mc.trials()), k2.to_string().c_str());

  // Machine-readable twin: the weakener-instance bound series plus an
  // instrumented simulator probe. The "bad probability" reported is the k=2
  // bound itself (pure arithmetic); the MC sample rides along as
  // mc_bad_probability with its Wilson interval.
  obs::JsonArray bounds;
  for (const int k : {1, 2, 3, 4, 8, 16, 32, 64}) {
    const Rational b =
        core::theorem42_bound(k, 1, 3, Rational(1), Rational(1, 2));
    obs::JsonObject row;
    row["k"] = obs::Json(k);
    row["bound"] = obs::Json(b.to_string());
    row["bound_double"] = obs::Json(b.to_double());
    bounds.emplace_back(std::move(row));
  }
  set_exact_probability(report, "bad_probability", k2.to_double());
  report.set_metric_string("bad_probability_exact", k2.to_string());
  // This bench's headline IS the k=2 generic bound, so the watchdog margin
  // is exactly zero — any arithmetic drift in core::bounds trips it.
  set_thm42_instance(report, /*k=*/kMcK, /*r=*/1, /*n=*/3,
                     /*prob_lin=*/1.0, /*prob_atomic=*/0.5, k2.to_double());
  set_bernoulli_metric(report, "mc_bad_probability", mc);
  report.set_metric_json("weakener_bounds", obs::Json(std::move(bounds)));
  obs::JsonArray tradeoff;
  for (const double eps : {0.5, 0.25, 0.1, 0.05, 0.01}) {
    for (const Cfg& c : kCfgs) {
      obs::JsonObject row;
      row["eps"] = obs::Json(eps);
      row["r"] = obs::Json(c.r);
      row["n"] = obs::Json(c.n);
      row["k"] = obs::Json(core::k_for_fraction(eps, c.r, c.n));
      tradeoff.emplace_back(std::move(row));
    }
  }
  report.set_metric_json("k_for_fraction", obs::Json(std::move(tradeoff)));
  merge_probe(report,
              run_instrumented_weakener(/*coin_seed=*/0, /*sched_seed=*/0,
                                        /*k=*/kMcK)
                  .snapshot);
  report_coverage(report, acc, info);
  return 0;
}

}  // namespace

Experiment make_theorem42_bound_experiment() {
  Experiment e;
  e.name = "theorem42_bound";
  e.description =
      "Theorem 4.2 bound tables + random-scheduler MC of the weakener over "
      "ABD^2 (parallel trial phase)";
  e.default_trials = 3000;
  e.default_seed = 42;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
