// The experiment engine's determinism contract (src/exp): merged results are
// bit-identical for every --threads value and seeds derive purely from
// (experiment_seed, trial_index). A trial that throws fails the run on the
// caller's thread. The report path (run_and_report) writes one validated
// report per run, and a finalize-only experiment refuses a trial count.
// That every builtin experiment's report is thread-count-independent is
// the baseline gate's to check (baseline_gate_test's ThreadCountIdentity
// suite runs each experiment with trials at 2 threads against the
// committed report that its BaselineGate case holds at 1 thread).
#include "exp/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "obs/report.hpp"

namespace blunt::exp {
namespace {

/// Synthetic experiment with deliberately awkward floating-point
/// contributions: fractional stats, per-trial histograms, uneven tallies.
/// If the engine's merge tree depended on the thread count anywhere, this
/// workload would expose it in the folded doubles.
Experiment make_synthetic(std::int64_t trials = 333) {
  Experiment e;
  e.name = "synthetic";
  e.description = "engine test workload";
  e.default_trials = trials;  // deliberately not a multiple of shard size
  e.default_seed = 7;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    const double x = static_cast<double>(ctx.seed % 1000) / 7.0;
    acc.tally("hit").add(ctx.seed % 3 == 0);
    acc.stat("x").add(x);
    acc.stat("x").add(-x / 3.0);
    acc.counter("n") += 1;
    obs::MetricsRegistry m;
    m.counter("c")->inc(static_cast<std::int64_t>(ctx.seed % 5));
    m.histogram("h")->observe(x);
    acc.registry().merge(m.snapshot());
  };
  return e;
}

RunOptions opts_with(int threads, int shard_size = 16) {
  RunOptions o;
  o.threads = threads;
  o.shard_size = shard_size;
  return o;
}

TEST(SeedDerivation, LinearIsSeedPlusIndex) {
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 100, 0), 100u);
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 100, 41), 141u);
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 0, 7), 7u);
}

TEST(SeedDerivation, SplitMixMatchesReferenceAndSeparatesTrials) {
  const std::uint64_t s = 42;
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(derive_seed(SeedDerivation::kSplitMix64, s, i),
              splitmix64(splitmix64(s) ^ static_cast<std::uint64_t>(i)));
  }
  // Distinct seeds for distinct trials (collision here would silently
  // correlate trials).
  std::set<std::uint64_t> seen;
  for (std::int64_t i = 0; i < 4096; ++i) {
    seen.insert(derive_seed(SeedDerivation::kSplitMix64, s, i));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Engine, MergedResultBitIdenticalAcrossThreadCounts) {
  const Experiment e = make_synthetic();
  const std::string want = run_trials(e, opts_with(1)).merged.to_json().dump();
  for (const int threads : {2, 3, 8}) {
    const RunOutput out = run_trials(e, opts_with(threads));
    EXPECT_EQ(out.merged.to_json().dump(), want)
        << "merged result diverged at " << threads << " threads";
    EXPECT_EQ(out.info.threads, threads);
  }
}

TEST(Engine, TrialContextCarriesLayoutAndDerivedSeeds) {
  Experiment e;
  e.name = "ctx_probe";
  e.default_trials = 40;
  e.default_seed = 9;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    EXPECT_EQ(ctx.trials, 40);
    EXPECT_EQ(ctx.experiment_seed, 9u);
    EXPECT_EQ(ctx.seed,
              derive_seed(SeedDerivation::kSplitMix64, 9, ctx.trial_index));
    acc.counter("seen") += 1;
  };
  const RunOutput out = run_trials(e, opts_with(4, /*shard_size=*/8));
  EXPECT_EQ(out.merged.counter_or("seen"), 40);
  EXPECT_EQ(out.info.shards_total, 5);
}

TEST(Engine, IntegerComponentsInvariantUnderShardSize) {
  // Changing the shard size changes the merge tree (so double moments may
  // differ in the last ulp), but every integer component must agree exactly.
  const Experiment e = make_synthetic();
  const RunOutput a = run_trials(e, opts_with(2, /*shard_size=*/16));
  const RunOutput b = run_trials(e, opts_with(2, /*shard_size=*/64));
  EXPECT_EQ(a.merged.tally("hit").successes(),
            b.merged.tally("hit").successes());
  EXPECT_EQ(a.merged.tally("hit").trials(), b.merged.tally("hit").trials());
  EXPECT_EQ(a.merged.counter_or("n"), b.merged.counter_or("n"));
  EXPECT_EQ(a.merged.registry().counter_or("c", -1),
            b.merged.registry().counter_or("c", -1));
  EXPECT_EQ(a.merged.stat("x").count(), b.merged.stat("x").count());
  EXPECT_DOUBLE_EQ(a.merged.stat("x").sum(), b.merged.stat("x").sum());
}

TEST(Engine, SeedOverrideChangesSplitMixResults) {
  const Experiment e = make_synthetic();
  RunOptions a = opts_with(2);
  RunOptions b = opts_with(2);
  b.has_seed = true;
  b.seed = 12345;
  EXPECT_NE(run_trials(e, a).merged.to_json().dump(),
            run_trials(e, b).merged.to_json().dump());
}

TEST(Engine, FinalizeOnlyExperimentRefusesTrialsNamingIt) {
  Experiment e;
  e.name = "finalize_only_probe";
  e.finalize = [](obs::BenchReport&, const Accumulator&, const RunInfo&) {
    return 0;
  };
  // Its default is no trials at all: an empty trial phase.
  EXPECT_EQ(run_trials(e, opts_with(2)).info.shards_total, 0);

  RunOptions five = opts_with(2);
  five.trials = 5;
  try {
    (void)run_trials(e, five);
    ADD_FAILURE() << "a finalize-only experiment accepted 5 trials";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("finalize_only_probe"),
              std::string::npos)
        << err.what();
  }
}

TEST(Engine, WorkerExceptionReachesTheCaller) {
  std::thread::id thrower;
  Experiment e;
  e.name = "throw_probe";
  e.default_trials = 8;
  e.trial = [&thrower](const TrialContext& ctx, Accumulator& acc) {
    if (ctx.trial_index == 5) {
      thrower = std::this_thread::get_id();
      throw std::runtime_error("trial 5 of throw_probe failed");
    }
    acc.counter("ran") += 1;
  };
  for (const int threads : {1, 2}) {
    try {
      (void)run_trials(e, opts_with(threads, /*shard_size=*/1));
      ADD_FAILURE() << "no exception reached the caller at " << threads
                    << " threads";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "trial 5 of throw_probe failed")
          << threads << " threads";
    }
    // With two workers the trial threw on a pool thread, so the exception
    // crossed threads to get here.
    if (threads == 2) {
      EXPECT_NE(thrower, std::this_thread::get_id());
    }
  }
}

/// Points reports at a fresh private directory for the lifetime of one
/// test.
class ReportSandbox {
 public:
  explicit ReportSandbox(const std::string& tag)
      : dir_(std::string(::testing::TempDir()) + "blunt_exp_report_" + tag) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ::setenv("BLUNT_BENCH_DIR", dir_.c_str(), 1);
  }
  ~ReportSandbox() {
    ::unsetenv("BLUNT_BENCH_DIR");
    std::filesystem::remove_all(dir_);
  }
  ReportSandbox(const ReportSandbox&) = delete;
  ReportSandbox& operator=(const ReportSandbox&) = delete;

  [[nodiscard]] std::string report_path(const Experiment& e) const {
    return dir_ + "/BENCH_" + e.name + ".json";
  }
  [[nodiscard]] obs::Json report(const Experiment& e) const {
    std::ifstream in(report_path(e));
    std::ostringstream buf;
    buf << in.rdbuf();
    return obs::Json::parse(buf.str());
  }

 private:
  std::string dir_;
};

/// The synthetic workload plus a finalize hook that reports from the merged
/// accumulator, the way the builtin experiments do.
Experiment make_reporting() {
  Experiment e = make_synthetic(100);
  e.name = "synthetic_report";
  e.finalize = [](obs::BenchReport& report, const Accumulator& acc,
                  const RunInfo&) {
    report.set_metric("x_mean", acc.stat("x").mean());
    report.set_metric_int("n", acc.counter_or("n"));
    report.merge_registry(acc.registry());
    return 0;
  };
  return e;
}

TEST(EngineReport, WritesOneValidReportPerRun) {
  const Experiment e = make_reporting();
  const ReportSandbox box("runs");
  ASSERT_EQ(run_and_report(e, opts_with(1)), 0);
  const obs::Json one = box.report(e);
  EXPECT_EQ(obs::validate_report_json(one), "");
  const obs::Json& env = one.at("environment");
  for (const char* key : {"engine_threads", "engine_shard_size",
                          "engine_trials", "engine_seed",
                          "engine_shards_total"}) {
    EXPECT_NE(env.find(key), nullptr) << key;
  }
  EXPECT_EQ(env.at("engine_trials").as_int(), 100);
  EXPECT_NE(one.at("timings_ms").find("engine_trials"), nullptr);

  // Threads change provenance and timings only.
  ASSERT_EQ(run_and_report(e, opts_with(2)), 0);
  const obs::Json two = box.report(e);
  EXPECT_EQ(env.at("engine_threads").as_int(), 1);
  EXPECT_EQ(two.at("environment").at("engine_threads").as_int(), 2);
  EXPECT_EQ(one.at("metrics").dump(), two.at("metrics").dump());
  EXPECT_EQ(one.at("registry").dump(), two.at("registry").dump());
}

TEST(BuiltinExperiments, AllThirteenAreRegistered) {
  register_builtin_experiments();
  for (const char* name :
       {"theorem42_bound", "abd_k_sweep", "chaos_soak", "equivalence_soak",
        "snapshot_blunting", "scaling_probe", "n_sweep", "atomic_baseline",
        "figure1_adversary", "abd2_exact_game", "k_tradeoff",
        "vitanyi_il_blunting", "consensus"}) {
    EXPECT_NE(find_experiment(name), nullptr) << name;
  }
  EXPECT_EQ(list_experiments().size(), 13u);
  EXPECT_EQ(find_experiment("nope"), nullptr);
}

}  // namespace
}  // namespace blunt::exp
