// Coverage under the engine's determinism contract: the merged CoverageMaps,
// every coverage.* metric, the shard-indexed coverage-growth curve and the
// report's coverage section must be bit-identical for every --threads value,
// and coverage-off runs must carry no coverage state at all.
#include "exp/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/workloads.hpp"
#include "obs/coverage.hpp"

namespace blunt::exp {
namespace {

/// Synthetic coverage workload: fingerprints are a pure function of the
/// derived seed, with deliberate cross-shard duplicates (v % 97) so merge
/// actually deduplicates across shard boundaries.
Experiment make_coverage_synthetic(std::int64_t trials = 333) {
  Experiment e;
  e.name = "coverage_synthetic";
  e.description = "coverage determinism workload";
  e.default_trials = trials;
  e.default_seed = 7;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    acc.counter("n") += 1;
    if (!ctx.coverage) return;
    acc.coverage(kCoverageSchedules).insert(ctx.seed);
    acc.coverage(kCoverageNgrams).insert(ctx.seed % 97);
    acc.coverage(kCoverageNgrams).insert(ctx.seed % 89);
  };
  return e;
}

RunOptions opts_with(int threads, bool coverage, int shard_size = 16) {
  RunOptions o;
  o.threads = threads;
  o.coverage = coverage;
  o.shard_size = shard_size;
  return o;
}

std::string growth_dump(
    const std::map<std::string, std::vector<std::int64_t>>& growth) {
  std::string out;
  for (const auto& [key, curve] : growth) {
    out += key + ":";
    for (const std::int64_t v : curve) out += std::to_string(v) + ",";
    out += ";";
  }
  return out;
}

TEST(CoverageDeterminism, MergedMapsAndGrowthIdenticalAcrossThreadCounts) {
  const Experiment e = make_coverage_synthetic();
  const RunOutput ref = run_trials(e, opts_with(1, /*coverage=*/true));
  const std::string want = ref.merged.to_json().dump();
  const std::string want_growth = growth_dump(ref.info.coverage_growth);
  ASSERT_FALSE(ref.info.coverage_growth.empty());
  ASSERT_TRUE(ref.info.coverage);
  // 333 trials / shard 16 = 21 shards -> every curve has one point per shard.
  EXPECT_EQ(
      ref.info.coverage_growth.at(kCoverageSchedules).size(),
      static_cast<std::size_t>(ref.info.shards_total));
  // The curve is cumulative, so it must be non-decreasing and end at the
  // merged set's size.
  const std::vector<std::int64_t>& curve =
      ref.info.coverage_growth.at(kCoverageSchedules);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  EXPECT_EQ(curve.back(),
            static_cast<std::int64_t>(
                ref.merged.coverage(kCoverageSchedules).size()));

  for (const int threads : {2, 3, 8}) {
    const RunOutput out = run_trials(e, opts_with(threads, /*coverage=*/true));
    EXPECT_EQ(out.merged.to_json().dump(), want) << threads << " threads";
    EXPECT_EQ(growth_dump(out.info.coverage_growth), want_growth)
        << threads << " threads";
  }
}

/// The report `run_and_report` writes for `e` under `opts`, read back from
/// a private bench directory.
obs::Json written_report(const Experiment& e, const RunOptions& opts,
                         const std::string& tag) {
  const std::string dir =
      std::string(::testing::TempDir()) + "blunt_cov_report_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("BLUNT_BENCH_DIR", dir.c_str(), 1);
  EXPECT_EQ(run_and_report(e, opts), 0);
  ::unsetenv("BLUNT_BENCH_DIR");
  std::ifstream in(dir + "/BENCH_" + e.name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  std::filesystem::remove_all(dir);
  return obs::Json::parse(text.str());
}

/// The report's coverage.* metrics, in key order.
std::string coverage_metrics_dump(const obs::Json& report) {
  std::string out;
  for (const auto& [key, v] : report.at("metrics").as_object()) {
    if (key.rfind("coverage.", 0) == 0) out += key + "=" + v.dump() + ";";
  }
  return out;
}

TEST(CoverageDeterminism, Theorem42CoverageIdenticalAcrossThreadCounts) {
  register_builtin_experiments();
  const Experiment* e = find_experiment("theorem42_bound");
  ASSERT_NE(e, nullptr);
  RunOptions base = opts_with(1, /*coverage=*/true);
  base.trials = 160;  // small but multi-shard (32-trial default shards)
  const RunOutput ref = run_trials(*e, base);
  const std::string want = ref.merged.to_json().dump();
  const std::string want_growth = growth_dump(ref.info.coverage_growth);
  EXPECT_GT(ref.merged.coverage(kCoverageSchedules).size(), 0u);
  EXPECT_GT(ref.merged.coverage(kCoverageNgrams).size(), 0u);
  EXPECT_GT(ref.merged.coverage(kCoverageObjects).size(), 0u);
  for (const int threads : {2, 3, 8}) {
    RunOptions o = base;
    o.threads = threads;
    const RunOutput out = run_trials(*e, o);
    EXPECT_EQ(out.merged.to_json().dump(), want) << threads << " threads";
    EXPECT_EQ(growth_dump(out.info.coverage_growth), want_growth)
        << threads << " threads";
  }

  // The written reports: the coverage section and every coverage.* metric
  // match at 1 and 2 threads, and the run is stamped engine_coverage.
  const obs::Json one = written_report(*e, base, "t1");
  RunOptions two_threads = base;
  two_threads.threads = 2;
  const obs::Json two = written_report(*e, two_threads, "t2");
  ASSERT_NE(one.find("coverage"), nullptr);
  ASSERT_NE(two.find("coverage"), nullptr);
  EXPECT_EQ(one.at("coverage").dump(), two.at("coverage").dump());
  EXPECT_NE(coverage_metrics_dump(one), "");
  EXPECT_EQ(coverage_metrics_dump(one), coverage_metrics_dump(two));
  for (const obs::Json* report : {&one, &two}) {
    const obs::Json* stamp = report->at("environment").find("engine_coverage");
    ASSERT_NE(stamp, nullptr);
    EXPECT_EQ(stamp->as_int(), 1);
  }
}

TEST(CoverageDeterminism, CoverageDoesNotPerturbTrialResults) {
  register_builtin_experiments();
  const Experiment* e = find_experiment("theorem42_bound");
  ASSERT_NE(e, nullptr);
  RunOptions off = opts_with(2, /*coverage=*/false);
  off.trials = 160;
  RunOptions on = off;
  on.coverage = true;
  const RunOutput plain = run_trials(*e, off);
  const RunOutput fingerprinted = run_trials(*e, on);
  // The tally must be bit-identical: fingerprinting wraps the adversary in a
  // choice-transparent recorder, never altering the execution.
  EXPECT_EQ(plain.merged.tally("mc_bad").successes(),
            fingerprinted.merged.tally("mc_bad").successes());
  EXPECT_EQ(plain.merged.tally("mc_bad").trials(),
            fingerprinted.merged.tally("mc_bad").trials());
  // And the coverage-off run carries no coverage state at all.
  EXPECT_TRUE(plain.merged.coverage_maps().empty());
  EXPECT_FALSE(plain.info.coverage);
  EXPECT_TRUE(plain.info.coverage_growth.empty());
}

}  // namespace
}  // namespace blunt::exp
