// Experiment: a declarative spec the engine can shard.
//
// An experiment is (a) a pure per-trial body mapping (derived seed, trial
// index) to contributions into a shard-local Accumulator, plus (b) a serial
// finalize hook that turns the merged accumulator into a BenchReport —
// exact game solves, closed-form tables, instrumented probe runs, and the
// human-readable console tables all live in finalize, where they run once on
// the aggregator thread. A finalize-only experiment has no trial body and
// does all its work there. The registry makes each experiment addressable by
// name from the unified `blunt_exp` CLI.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/seed.hpp"
#include "obs/report.hpp"

namespace blunt::exp {

/// What a trial body sees. `seed` is derived purely from
/// (experiment_seed, trial_index) — see exp/seed.hpp — so the body must draw
/// ALL its randomness from it (or from trial_index itself under kLinear);
/// anything thread- or time-dependent would break engine determinism.
struct TrialContext {
  std::int64_t trial_index = 0;
  std::uint64_t seed = 0;
  std::uint64_t experiment_seed = 0;
  /// The run's total (resolved) trial count — what trial_index ranges over.
  /// Structured experiments use it to decode group boundaries from the
  /// index; it is part of the layout, identical for every thread count.
  std::int64_t trials = 0;
  /// Execution-coverage opt-in (RunOptions::coverage). When set, trial
  /// bodies that support it wrap their adversary in an
  /// obs::ScheduleFingerprinter and record fingerprints into the shard
  /// accumulator's coverage maps; when clear they MUST run the exact
  /// pre-coverage code path (zero added work on the hot path).
  bool coverage = false;
};

/// Engine-facts finalize may want to report (trial counts, wall clocks).
struct RunInfo {
  std::int64_t trials = 0;
  std::uint64_t seed = 0;
  int threads = 0;
  int shard_size = 0;
  int shards_total = 0;
  double wall_ms = 0.0;  // trial phase only, at `threads`
  /// Execution coverage was enabled for this run (RunOptions::coverage).
  bool coverage = false;
  /// Per coverage key, the cumulative unique-fingerprint count after folding
  /// each shard in ascending order — the coverage-growth curve. Computed
  /// inside the engine's fixed merge tree, so it is bit-identical for any
  /// thread count (index i = coverage size after shards [0, i]).
  std::map<std::string, std::vector<std::int64_t>> coverage_growth;
};

struct Experiment {
  std::string name;         // report name: emits BENCH_<name>.json
  std::string description;  // one-liner for `blunt_exp --list`
  std::int64_t default_trials = 0;
  std::uint64_t default_seed = 0;
  /// 0: the engine default (kDefaultShardSize). The shard structure is a
  /// pure function of (trials, shard_size) — never of the thread count.
  int default_shard_size = 0;
  SeedDerivation seed_derivation = SeedDerivation::kSplitMix64;

  /// Optional env-knob hook: maps the CLI/default trial count to the
  /// effective one (e.g. chaos_soak honoring $BLUNT_CHAOS_TRIALS, the k
  /// sweep honoring $BLUNT_MAX_K). Called once before sharding.
  std::function<std::int64_t(std::int64_t requested)> resolve_trials;

  /// The shardable per-trial body. MUST be thread-compatible: worlds,
  /// adversaries, and all mutable state are built locally per trial; the
  /// only cross-trial communication is the shard Accumulator. Empty for a
  /// finalize-only experiment, which then takes no trials.
  std::function<void(const TrialContext&, Accumulator&)> trial;

  /// Serial post-barrier hook: merged accumulator -> report metrics +
  /// console tables. Returns a process exit code (0 = success), so soaks
  /// can fail the run on violated invariants. The engine stamps engine
  /// provenance (threads, shard_size, trials, seed) and timings after this
  /// returns.
  std::function<int(obs::BenchReport&, const Accumulator&, const RunInfo&)>
      finalize;
};

/// Process-global experiment registry. Registration replaces an existing
/// experiment of the same name (last wins), so tests can shadow builtins.
void register_experiment(Experiment e);
[[nodiscard]] const Experiment* find_experiment(const std::string& name);
[[nodiscard]] std::vector<const Experiment*> list_experiments();

/// Registers the 14 builtin experiments (exp_*.cpp). Idempotent.
void register_builtin_experiments();

}  // namespace blunt::exp
