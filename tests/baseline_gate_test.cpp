// The committed baselines (bench/baselines) as a tier-1 gate. Each case
// reruns one registered experiment at the settings bench/baselines/README.md
// fixes, finalizes its report in memory and compares it with the committed
// BENCH_<name>.json through obs::compare_reports: Wilson-interval verdicts
// on Bernoulli metrics, exact values, invariant flags, registry counters and
// the Theorem 4.2 watchdog. A regressed row or a bound violation fails the
// case and names the metric with its evidence. An experiment without a
// baseline file gets the Theorem 4.2 watchdog alone. Nothing is written to
// disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace blunt::exp {
namespace {

/// Runs the registered experiment `name` at 2 threads (`trials` -1 = its
/// default) and returns the report its finalize hook builds.
obs::Json run_report(const std::string& name, std::int64_t trials = -1) {
  register_builtin_experiments();
  const Experiment* e = find_experiment(name);
  if (e == nullptr) {
    ADD_FAILURE() << "experiment " << name << " is not registered";
    return {};
  }
  RunOptions opts;
  opts.threads = 2;
  opts.trials = trials;
  const RunOutput out = run_trials(*e, opts);
  obs::BenchReport report(e->name);
  EXPECT_EQ(e->finalize(report, out.merged, out.info), 0) << name;
  return report.to_json();
}

obs::Json load_baseline(const std::string& name) {
  const std::string path =
      std::string(BLUNT_BASELINES_DIR) + "/BENCH_" + name + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

/// Fails on every regressed or bound-violating row, naming its metric and
/// evidence. A gate that compared nothing is a failure too.
void expect_clean(const std::string& name,
                  const std::vector<obs::MetricComparison>& rows) {
  ASSERT_FALSE(rows.empty()) << name << ": nothing was compared";
  int bad = 0;
  for (const obs::MetricComparison& c : rows) {
    if (c.verdict == obs::Verdict::kRegressed ||
        c.verdict == obs::Verdict::kBoundViolated) {
      ++bad;
      ADD_FAILURE() << name << " " << c.metric << " ("
                    << obs::to_string(c.verdict) << "): " << c.evidence;
    }
  }
  std::printf("baseline gate: %s, %zu rows, %d bad\n", name.c_str(),
              rows.size(), bad);
}

void expect_matches_baseline(const std::string& name,
                             std::int64_t trials = -1) {
  const obs::Json current = run_report(name, trials);
  const obs::Json baseline = load_baseline(name);
  expect_clean(name, obs::compare_reports(baseline, current).comparisons);
}

TEST(BaselineGate, Theorem42BoundMatchesBaseline) {
  expect_matches_baseline("theorem42_bound");
}

TEST(BaselineGate, AbdKSweepMatchesBaseline) {
  // The baseline's trial space and exact solves stop at k = 2.
  ::setenv("BLUNT_MAX_K", "2", 1);
  expect_matches_baseline("abd_k_sweep");
  ::unsetenv("BLUNT_MAX_K");
}

TEST(BaselineGate, ChaosSoakMatchesBaseline) {
  expect_matches_baseline("chaos_soak", /*trials=*/40);
}

TEST(BaselineGate, EquivalenceSoakMatchesBaseline) {
  expect_matches_baseline("equivalence_soak");
}

TEST(BaselineGate, NSweepMatchesBaseline) {
  // Per-group step and run counts are exact; the bad probabilities are
  // Wilson-compared and the headline n1024_k2 group feeds the watchdog.
  expect_matches_baseline("n_sweep");
}

// The finalize-only experiments: exact solves, scripted adversaries and
// serial sweeps, each run once in finalize.
TEST(BaselineGate, AtomicBaselineMatchesBaseline) {
  expect_matches_baseline("atomic_baseline");
}

TEST(BaselineGate, Figure1AdversaryMatchesBaseline) {
  expect_matches_baseline("figure1_adversary");
}

TEST(BaselineGate, Abd2ExactGameMatchesBaseline) {
  expect_matches_baseline("abd2_exact_game");
}

TEST(BaselineGate, KTradeoffMatchesBaseline) {
  expect_matches_baseline("k_tradeoff");
}

TEST(BaselineGate, VitanyiIlBluntingMatchesBaseline) {
  expect_matches_baseline("vitanyi_il_blunting");
}

TEST(BaselineGate, ConsensusMatchesBaseline) {
  expect_matches_baseline("consensus");
}

TEST(BaselineGate, SnapshotBluntingHoldsTheorem42Bound) {
  expect_clean("snapshot_blunting",
               obs::check_thm42_bound(run_report("snapshot_blunting")));
}

}  // namespace
}  // namespace blunt::exp
