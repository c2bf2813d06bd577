// Profiling under the engine's determinism contract: merged exact profile
// counters must be bit-identical for every --threads value
// (Accumulator::canonical_dump zeroes the advisory wall-clock so only exact
// state is compared), profile-off runs must carry no profile state at all,
// and profiling must never perturb trial results.
#include "exp/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "exp/workloads.hpp"
#include "obs/prof.hpp"

namespace blunt::exp {
namespace {

/// Synthetic profiled workload: each trial bills a seed-derived amount of
/// exact work (plus real, nondeterministic nanoseconds from the scoped
/// timer) into a shared snapshot name and a per-group name, so the merge
/// exercises both cross-shard accumulation and map-keyed folding.
Experiment make_profile_synthetic(std::int64_t trials = 333) {
  Experiment e;
  e.name = "profile_synthetic";
  e.description = "profiling determinism workload";
  e.default_trials = trials;
  e.default_seed = 7;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    acc.counter("n") += 1;
    if (!ctx.profile) return;
    obs::Profiler prof;
    {
      obs::ScopedPhase run(&prof, obs::Phase::kRun);
      obs::ScopedPhase scan(&prof, obs::Phase::kEnabledScan);
      prof.count(obs::ProfCounter::kEventsScanned,
                 static_cast<std::int64_t>(ctx.seed % 97));
      prof.count(obs::ProfCounter::kStepsExecuted);
    }
    record_profile(acc, "all", &prof);
    record_profile(acc, ctx.seed % 2 == 0 ? "even" : "odd", &prof);
  };
  return e;
}

RunOptions opts_with(int threads, bool profile, int shard_size = 16) {
  RunOptions o;
  o.threads = threads;
  o.profile = profile;
  o.shard_size = shard_size;
  return o;
}

TEST(ProfileDeterminism, ExactCountersIdenticalAcrossThreadCounts) {
  const Experiment e = make_profile_synthetic();
  const RunOutput ref = run_trials(e, opts_with(1, /*profile=*/true));
  ASSERT_TRUE(ref.info.profile);
  ASSERT_FALSE(ref.merged.profiles().empty());
  EXPECT_GT(ref.merged.profile("all").counter(obs::ProfCounter::kEventsScanned),
            0);
  EXPECT_EQ(ref.merged.profile("all").counter(obs::ProfCounter::kStepsExecuted),
            333);
  // The advisory ns really is nonzero (the timers ran) — which is exactly
  // why identity is compared through the ns-zeroed canonical dump.
  EXPECT_GT(ref.merged.profile("all").phase(obs::Phase::kRun).ns, 0);
  const std::string want = ref.merged.canonical_dump();
  for (const int threads : {2, 3, 8}) {
    const RunOutput out = run_trials(e, opts_with(threads, /*profile=*/true));
    EXPECT_EQ(out.merged.canonical_dump(), want) << threads << " threads";
  }
}

TEST(ProfileDeterminism, ScalingProbeIdenticalAcrossThreadCounts) {
  register_builtin_experiments();
  const Experiment* e = find_experiment("scaling_probe");
  ASSERT_NE(e, nullptr);
  // 14 trials -> 2 per n group; shard size 2 -> 7 shards to fold.
  RunOptions base = opts_with(1, /*profile=*/false, /*shard_size=*/2);
  base.trials = 14;
  const RunOutput ref = run_trials(*e, base);
  // scaling_probe profiles unconditionally — no --profile needed.
  ASSERT_FALSE(ref.merged.profiles().empty());
  EXPECT_GT(
      ref.merged.profile("n4").counter(obs::ProfCounter::kEventsScanned), 0);
  const std::string want = ref.merged.canonical_dump();
  for (const int threads : {2, 8}) {
    RunOptions o = base;
    o.threads = threads;
    EXPECT_EQ(run_trials(*e, o).merged.canonical_dump(), want)
        << threads << " threads";
  }
}

TEST(ProfileDeterminism, ProfileOffCarriesNoStateAndProfilingDoesNotPerturb) {
  const Experiment e = make_profile_synthetic();
  const RunOutput off = run_trials(e, opts_with(2, /*profile=*/false));
  EXPECT_FALSE(off.info.profile);
  EXPECT_TRUE(off.merged.profiles().empty());
  // to_json of a profile-off run has no "profile" key at all.
  EXPECT_EQ(off.merged.to_json().find("profile"), nullptr);
  // Profiling changes nothing about the trial results themselves.
  const RunOutput on = run_trials(e, opts_with(2, /*profile=*/true));
  EXPECT_EQ(off.merged.counter_or("n"), on.merged.counter_or("n"));
}

}  // namespace
}  // namespace blunt::exp
