// Scaling probe: per-subsystem cost-per-step curves as the ABD replication
// width n grows.
//
// The trial space is grouped by n ∈ {4, 8, ..., 512, 1024}: each group
// runs weakener-over-ABD^2 trials at that replication width with the
// deterministic profiler always on (profiling is the point of this
// experiment; it is the one experiment that profiles), at
// TraceDetail::kNone — the Monte-Carlo hot-path configuration. Each trial
// additionally runs the Wing–Gong checker over the run's history with the
// same profiler, so the kLinCheck phase and memo counters scale alongside.
//
// The merged per-n ProfileSnapshots ("n4" ... "n1024") yield the headline
// curves: events scanned per scheduler step (flat O(state changes) since
// the incremental enabled-index overhaul), quorum bookkeeping touches per
// step, and deliveries per step — all exact integers, bit-identical for
// any --threads value. Advisory ns curves ride along in timings_ms. The
// baseline gate holds the report's metrics and registry to the committed
// bench/baselines/BENCH_scaling_probe.json; the allocation tallies, which
// depend on the standard-library build, stay in the profile section.
#include <cstdio>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

constexpr int kNs[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
constexpr int kNumGroups = static_cast<int>(sizeof(kNs) / sizeof(kNs[0]));
constexpr int kPreambleK = 2;

[[nodiscard]] std::string group_name(int n) {
  return "n" + std::to_string(n);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  // Trials are grouped by n: indices [g*per_n, (g+1)*per_n) run width
  // kNs[g]. resolve_trials rounds the total to a multiple of the group
  // count, so per_n is exact and the layout is a pure function of trials.
  const std::int64_t per_n = ctx.trials / kNumGroups;
  const int g = static_cast<int>(ctx.trial_index / per_n);
  BLUNT_ASSERT(g < kNumGroups, "scaling_probe trial index out of range");
  const int n = kNs[g];

  adversary::McInstance inst =
      make_abd_weakener(ctx.seed, kPreambleK, n, /*metrics=*/false,
                        sim::TraceDetail::kNone, /*profile=*/true);
  sim::UniformAdversary adv(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
  const sim::RunResult res = inst.world->run(adv);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "scaling_probe weakener run did not complete at n=" << n);

  // The checker shares the world's profiler, so its phase and memo counters
  // land in the same per-n snapshot as the scheduler costs.
  const lin::History h = lin::History::from_world(*inst.world);
  static const lin::RegisterSpec spec_r;  // R starts at ⊥
  static const lin::RegisterSpec spec_c{sim::Value(std::int64_t{-1})};
  const std::vector<std::string>& obj_names = inst.world->object_names();
  const bool lin_ok = lin::check_all_objects(
      h,
      [&obj_names](int id) -> const lin::SequentialSpec* {
        return obj_names[static_cast<std::size_t>(id)] == "C" ? &spec_c
                                                              : &spec_r;
      },
      nullptr, inst.world->profiler());
  BLUNT_ASSERT(lin_ok, "scaling_probe run not linearizable at n=" << n);

  const std::string gname = group_name(n);
  acc.counter(gname + ".runs") += 1;
  acc.counter(gname + ".steps") += res.steps;
  record_profile(acc, gname, *inst.world);
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo&) {
  print_header("Scaling probe: per-subsystem cost per step vs n (ABD^2)");
  print_rule();
  std::printf("%6s %8s %10s %12s %12s %12s %10s\n", "n", "runs", "steps",
              "scans/step", "quorum/step", "deliv/step", "scan ns");
  print_rule();

  for (const int n : kNs) {
    const std::string gname = group_name(n);
    const std::int64_t runs = acc.counter_or(gname + ".runs");
    const std::int64_t steps = acc.counter_or(gname + ".steps");
    const obs::ProfileSnapshot& snap = acc.profile(gname);
    BLUNT_ASSERT(runs > 0 && !snap.empty(),
                 "scaling_probe group " << gname << " is empty");
    const std::int64_t scanned =
        snap.counter(obs::ProfCounter::kEventsScanned);
    const std::int64_t quorum = snap.counter(obs::ProfCounter::kQuorumTouches);
    const std::int64_t deliveries =
        snap.counter(obs::ProfCounter::kDeliveries);
    const std::int64_t executed =
        snap.counter(obs::ProfCounter::kStepsExecuted);
    BLUNT_ASSERT(executed == steps,
                 "profiler step count diverged from RunResult at " << gname);
    const double den = static_cast<double>(steps > 0 ? steps : 1);
    const double scans_per_step = static_cast<double>(scanned) / den;
    const double quorum_per_step = static_cast<double>(quorum) / den;
    const double deliv_per_step = static_cast<double>(deliveries) / den;
    const std::int64_t scan_ns = snap.phase(obs::Phase::kEnabledScan).ns;

    std::printf("%6d %8lld %10lld %12.2f %12.2f %12.2f %10.1f\n", n,
                static_cast<long long>(runs), static_cast<long long>(steps),
                scans_per_step, quorum_per_step, deliv_per_step,
                static_cast<double>(scan_ns) / den);

    // Exact regression surface: integer totals per group. The derived
    // per-step ratios are exact quotients of them (reported for the chart;
    // any drift in the integers is the real signal).
    report.set_metric_int(gname + ".runs", runs);
    report.set_metric_int(gname + ".steps", steps);
    report.set_metric_int(gname + ".events_scanned", scanned);
    report.set_metric_int(gname + ".quorum_touches", quorum);
    report.set_metric_int(gname + ".deliveries", deliveries);
    report.set_metric(gname + ".events_scanned_per_step", scans_per_step);
    report.set_metric(gname + ".quorum_touches_per_step", quorum_per_step);
    report.set_metric(gname + ".deliveries_per_step", deliv_per_step);
  }
  print_rule();

  // Structured cost-vs-n rows, one per n.
  obs::JsonArray rows;
  for (const int n : kNs) {
    const std::string gname = group_name(n);
    const obs::ProfileSnapshot& snap = acc.profile(gname);
    const std::int64_t steps = acc.counter_or(gname + ".steps");
    const double den = static_cast<double>(steps > 0 ? steps : 1);
    obs::JsonObject row;
    row["n"] = obs::Json(n);
    row["steps"] = obs::Json(steps);
    row["events_scanned_per_step"] = obs::Json(
        static_cast<double>(snap.counter(obs::ProfCounter::kEventsScanned)) /
        den);
    row["quorum_touches_per_step"] = obs::Json(
        static_cast<double>(snap.counter(obs::ProfCounter::kQuorumTouches)) /
        den);
    row["deliveries_per_step"] = obs::Json(
        static_cast<double>(snap.counter(obs::ProfCounter::kDeliveries)) /
        den);
    rows.emplace_back(std::move(row));
  }
  report.set_metric_json("scaling_rows", obs::Json(std::move(rows)));

  // Full snapshots: profile.* exact metrics, the structured "profile"
  // section, advisory ns timings, and the console cost table. This
  // experiment profiles unconditionally, so the section is always present.
  report_profile(report, acc);

  // One instrumented full-detail run at the paper's n = 3 keeps the registry
  // section populated like every other report.
  merge_probe(report, run_instrumented_weakener(/*coin_seed=*/0,
                                                /*sched_seed=*/0,
                                                /*k=*/kPreambleK)
                          .snapshot);
  return 0;
}

}  // namespace

Experiment make_scaling_probe_experiment() {
  Experiment e;
  e.name = "scaling_probe";
  e.description =
      "per-subsystem cost-per-step curves vs ABD replication width n "
      "(4..1024): profiled weakener ABD^2 trials quantifying the scheduler's "
      "per-step enumeration cost";
  e.default_trials = 16 * kNumGroups;  // 16 per n group
  e.default_seed = 7;
  e.resolve_trials = [](std::int64_t requested) {
    std::int64_t t = requested >= 0 ? requested : 16 * kNumGroups;
    if (t < kNumGroups) t = kNumGroups;
    // Round up to a whole number of equal-size n groups.
    const std::int64_t rem = t % kNumGroups;
    if (rem != 0) t += kNumGroups - rem;
    return t;
  };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
