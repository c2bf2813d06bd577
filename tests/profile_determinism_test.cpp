// Profiling under the engine's determinism contract: merged exact profile
// counters must be bit-identical for every --threads value
// (Accumulator::canonical_dump zeroes the advisory wall-clock so only exact
// state is compared), unprofiled worlds must leave no profile state at all,
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

/// The weakener over ABD² at n = 3, every world built with or without
/// sim::Config::profile; each trial folds its outcome, its step count and
/// (when the world has a profiler) its profile.
Experiment make_weakener_trials(bool profile) {
  Experiment e;
  e.name = "profile_weakener";
  e.description = "weakener trials, profiled or not";
  e.default_trials = 64;
  e.default_seed = 5;
  e.trial = [profile](const TrialContext& ctx, Accumulator& acc) {
    adversary::McInstance inst =
        make_abd_weakener(ctx.seed, /*k=*/2, kWeakenerNumProcesses,
                          /*metrics=*/false, sim::TraceDetail::kNone, profile);
    sim::UniformAdversary adv(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
    const sim::RunResult res = inst.world->run(adv);
    acc.tally("bad").add(inst.bad());
    acc.counter("steps") += res.steps;
    record_profile(acc, "mc", *inst.world);
  };
  return e;
}

RunOptions opts_with(int threads, int shard_size = 16) {
  RunOptions o;
  o.threads = threads;
  o.shard_size = shard_size;
  return o;
}

TEST(ProfileDeterminism, ExactCountersIdenticalAcrossThreadCounts) {
  const Experiment e = make_profile_synthetic();
  const RunOutput ref = run_trials(e, opts_with(1));
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
    const RunOutput out = run_trials(e, opts_with(threads));
    EXPECT_EQ(out.merged.canonical_dump(), want) << threads << " threads";
  }
}

TEST(ProfileDeterminism, ScalingProbeIdenticalAcrossThreadCounts) {
  register_builtin_experiments();
  const Experiment* e = find_experiment("scaling_probe");
  ASSERT_NE(e, nullptr);
  // 14 trials -> 2 per n group; shard size 2 -> 7 shards to fold.
  RunOptions base = opts_with(1, /*shard_size=*/2);
  base.trials = 14;
  const RunOutput ref = run_trials(*e, base);
  // scaling_probe profiles every trial.
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
  const RunOutput off = run_trials(make_weakener_trials(false), opts_with(2));
  // record_profile is a no-op on a world without a profiler, so the merged
  // accumulator, and its JSON, carry no profile state at all.
  EXPECT_TRUE(off.merged.profiles().empty());
  EXPECT_EQ(off.merged.to_json().find("profile"), nullptr);

  const RunOutput on = run_trials(make_weakener_trials(true), opts_with(2));
  const std::int64_t steps = on.merged.counter_or("steps");
  EXPECT_GT(steps, 0);
  EXPECT_EQ(on.merged.profile("mc").counter(obs::ProfCounter::kStepsExecuted),
            steps);
  // Profiling changes nothing about the trial results themselves.
  EXPECT_EQ(off.merged.counter_or("steps"), steps);
  EXPECT_EQ(off.merged.tally("bad").successes(),
            on.merged.tally("bad").successes());
  EXPECT_EQ(off.merged.tally("bad").trials(), 64);
}

}  // namespace
}  // namespace blunt::exp
