// E8 (Section 5.2): the snapshot object under the transformation.
//
// Reports, per k:
//   * random-scheduler bad-outcome rate of the snapshot weakener (a
//     weakener-style program over Snapshot^k; see
//     programs/snapshot_weakener.hpp — for THIS program the Afek
//     double-collect discipline already denies the adversary any gain over
//     the atomic 1/2, and the measured rates show no amplification; the
//     Theorem 4.2 guarantee for Snapshot^k applies regardless);
//   * the cost: collects executed per run (grows linearly in k);
//   * tail-strong-linearizability chain verdicts w.r.t. Π_snapshot on the
//     sampled executions (expected: all pass).
//
// Engine port: trial index i encodes (k, seed) as k = i/150 + 1,
// seed = i%150 — the pre-port per-seed worlds exactly. Chain checks sample
// seeds < 25, pinned to the trial index so the sample is independent of
// execution order. Exact game solves and instrumented probes stay in
// finalize.
#include <cstdio>

#include "common/stats.hpp"
#include "core/bounds.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "game/snapshot_game.hpp"
#include "game/solver.hpp"
#include "lin/strong.hpp"
#include "objects/atomic.hpp"
#include "objects/snapshot.hpp"
#include "programs/snapshot_weakener.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

constexpr int kKs = 3;
constexpr int kRunsPerK = 150;
constexpr int kChainSampleSeeds = 25;  // chain checks are slower; sample

std::string key(const char* prefix, int k) {
  return std::string(prefix) + "_k" + std::to_string(k);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const int k = static_cast<int>(ctx.trial_index / kRunsPerK) + 1;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(ctx.trial_index % kRunsPerK);

  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AfekSnapshot snap(
      "S", *w, {.num_processes = 3, .preamble_iterations = k});
  objects::AtomicRegister c("C", *w, sim::Value(std::int64_t{-1}));
  programs::SnapshotWeakenerOutcome out;
  programs::install_snapshot_weakener(*w, snap, c, out);
  sim::UniformAdversary adv(seed * 23 + 11);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return;
  acc.tally(key("bad", k)).add(out.bad());
  acc.stat(key("collects", k))
      .add(static_cast<double>(snap.collects_run()));
  if (seed < kChainSampleSeeds) {
    ++acc.counter(key("chains", k));
    const lin::History h = lin::History::from_world(*w).project_object(
        snap.object_id());
    lin::SnapshotSpec spec(3);
    if (certified_tail_strong(
            lin::PrefixTree::chain_of(h, snap.preamble_mapping()), spec)) {
      ++acc.counter(key("chains_ok", k));
    }
  }
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& /*info*/) {
  print_header(
      "E8: snapshot weakener over Afek-et-al Snapshot^k (Section 5.2)");
  print_rule();
  std::printf("%6s %12s %12s %16s %16s %18s\n", "k", "exact bad", "MC bad",
              "collects/run", "chain ok", "Thm4.2 bad <=");
  print_rule();

  obs::JsonArray sweep_rows;
  for (int k = 1; k <= kKs; ++k) {
    const Rational exact = game::solve(game::SnapshotWeakenerGame(k));
    const BernoulliEstimator& bad = acc.tally(key("bad", k));
    const RunningStats& collects = acc.stat(key("collects", k));
    const int chains = static_cast<int>(acc.counter_or(key("chains", k)));
    const int chains_ok =
        static_cast<int>(acc.counter_or(key("chains_ok", k)));
    const Rational bound =
        core::theorem42_bound(k, 1, 3, Rational(1), Rational(1, 2));
    std::printf("%6d %12s %12.3f %16.1f %13d/%-2d %18s\n", k,
                exact.to_string().c_str(), bad.mean(), collects.mean(),
                chains_ok, chains, bound.to_string().c_str());

    // One instrumented run per k: preamble iterations executed vs kept for
    // Snapshot^k come from the registry (Scan's collect preamble).
    {
      auto w = std::make_unique<sim::World>(
          sim::Config{.metrics = true}, std::make_unique<sim::SeededCoin>(0));
      objects::AfekSnapshot snap(
          "S", *w, {.num_processes = 3, .preamble_iterations = k});
      objects::AtomicRegister c("C", *w, sim::Value(std::int64_t{-1}));
      programs::SnapshotWeakenerOutcome out;
      programs::install_snapshot_weakener(*w, snap, c, out);
      sim::UniformAdversary adv(11);
      (void)w->run(adv);
      report.merge_registry(w->metrics()->snapshot());
    }

    obs::JsonObject row;
    row["k"] = obs::Json(k);
    row["bad_exact"] = obs::Json(exact.to_string());
    row["bad_exact_double"] = obs::Json(exact.to_double());
    row["bad_mc"] = obs::Json(bad.mean());
    row["collects_per_run"] = obs::Json(collects.mean());
    row["chains_ok"] = obs::Json(chains_ok);
    row["chains_checked"] = obs::Json(chains);
    row["thm42_bound"] = obs::Json(bound.to_string());
    sweep_rows.emplace_back(std::move(row));
    if (k == 2) {
      set_exact_probability(report, "bad_probability", exact.to_double());
      report.set_metric_string("bad_probability_exact", exact.to_string());
      set_bernoulli_metric(report, "bad_probability_mc", bad);
      set_thm42_instance(report, k, /*r=*/1, /*n=*/3,
                         /*prob_lin=*/1.0, /*prob_atomic=*/0.5,
                         exact.to_double());
    }
  }
  report.set_metric_json("sweep", obs::Json(std::move(sweep_rows)));
  report.set_environment_int("mc_runs_per_k", kRunsPerK);
  print_rule();
  std::printf(
      "shape: the EXACT optimal-adversary value is 1/2 at every k — the "
      "double-collect\ndiscipline already pins a pending Scan's view before "
      "the coin can be exploited in\nthis program; costs grow with k; all "
      "sampled chains tail-strongly linearizable\nw.r.t. Pi_snapshot. The "
      "known snapshot amplification example [GHW STOC'11] uses a\ndifferent "
      "program shape (see EXPERIMENTS.md).\n");
  return 0;
}

}  // namespace

Experiment make_snapshot_blunting_experiment() {
  Experiment e;
  e.name = "snapshot_blunting";
  e.description =
      "snapshot weakener over Snapshot^k: MC rates, collect costs, and "
      "chain checks for k in {1,2,3} (structured trial space; --trials "
      "ignored)";
  e.default_trials = kKs * kRunsPerK;
  e.default_seed = 0;
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = [](std::int64_t) {
    return static_cast<std::int64_t>(kKs * kRunsPerK);
  };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
