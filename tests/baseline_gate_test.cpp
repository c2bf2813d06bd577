// The committed baselines (bench/baselines) as a tier-1 gate: the one
// report-level gate, covering all 13 experiments. Each case reruns one
// registered experiment at the settings bench/baselines/README.md fixes,
// finalizes its report in memory and diffs it with the committed
// BENCH_<name>.json through obs::compare_reports: the `metrics` and
// `registry` sections must be equal, value for value and JSON type for JSON
// type, and the Theorem 4.2 watchdog must hold. Every difference fails the
// case and names its path. `BaselineGate` runs each experiment at 1 thread;
// `ThreadCountIdentity` runs each experiment with a trial body again at 2
// threads against the same file, so the engine's thread-count identity is
// held by the gate too. Nothing is written to disk.
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

/// Runs `e` at `threads` workers (`trials` -1 = its default) and returns the
/// report its finalize hook builds.
obs::Json run_report(const Experiment& e, int threads, std::int64_t trials) {
  RunOptions opts;
  opts.threads = threads;
  opts.trials = trials;
  const RunOutput out = run_trials(e, opts);
  obs::BenchReport report(e.name);
  EXPECT_EQ(e.finalize(report, out.merged, out.info), 0) << e.name;
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

/// Reruns experiment `name` at `threads` workers, at its gate settings, and
/// fails on every difference between its report and the committed file.
void expect_matches_baseline(const std::string& name, int threads = 1) {
  register_builtin_experiments();
  const Experiment* e = find_experiment(name);
  ASSERT_NE(e, nullptr) << "experiment " << name << " is not registered";
  const obs::Json baseline = load_baseline(name);
  // A gate that compares nothing is a failure too.
  ASSERT_FALSE(baseline.at("metrics").as_object().empty()) << name;
  // The gate settings where an experiment's default is slow: abd_k_sweep's
  // trial space and exact solves stop at k = 2, chaos_soak runs 40 trials.
  if (name == "abd_k_sweep") ::setenv("BLUNT_MAX_K", "2", 1);
  const std::int64_t trials = name == "chaos_soak" ? 40 : -1;
  const std::vector<obs::Difference> diffs =
      obs::compare_reports(baseline, run_report(*e, threads, trials));
  ::unsetenv("BLUNT_MAX_K");
  for (const obs::Difference& d : diffs) {
    ADD_FAILURE() << name << " at " << threads
                  << " thread(s): " << obs::to_string(d);
  }
  std::printf("baseline gate: %s at %d thread(s), %zu differences\n",
              name.c_str(), threads, diffs.size());
}

TEST(BaselineGate, Theorem42BoundMatchesBaseline) {
  expect_matches_baseline("theorem42_bound");
}

TEST(BaselineGate, AbdKSweepMatchesBaseline) {
  expect_matches_baseline("abd_k_sweep");
}

TEST(BaselineGate, ChaosSoakMatchesBaseline) {
  expect_matches_baseline("chaos_soak");
}

TEST(BaselineGate, EquivalenceSoakMatchesBaseline) {
  expect_matches_baseline("equivalence_soak");
}

TEST(BaselineGate, SnapshotBluntingMatchesBaseline) {
  expect_matches_baseline("snapshot_blunting");
}

TEST(BaselineGate, NSweepMatchesBaseline) {
  // Every group's step and run counts, up to n = 1024; the headline
  // n1024_k2 group feeds the watchdog.
  expect_matches_baseline("n_sweep");
}

TEST(BaselineGate, ScalingProbeMatchesBaseline) {
  // The profiler's exact work counters per n group; the allocation tallies
  // stay in the report's profile section, which is not compared.
  expect_matches_baseline("scaling_probe");
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

/// Every builtin experiment with a trial body.
std::vector<std::string> trial_experiment_names() {
  register_builtin_experiments();
  std::vector<std::string> names;
  for (const Experiment* e : list_experiments()) {
    if (e->trial) names.push_back(e->name);
  }
  return names;
}

class ThreadCountIdentity : public ::testing::TestWithParam<std::string> {};

/// A report's `metrics` and `registry` sections are pure functions of
/// (experiment, seed, trials): at 2 threads they must still equal the
/// committed file, which the experiment's `BaselineGate` case holds at 1
/// thread. Wall clocks belong in `timings_ms`.
TEST_P(ThreadCountIdentity, MetricsAndRegistry) {
  expect_matches_baseline(GetParam(), 2);
}

INSTANTIATE_TEST_SUITE_P(Builtin, ThreadCountIdentity,
                         ::testing::ValuesIn(trial_experiment_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace blunt::exp
