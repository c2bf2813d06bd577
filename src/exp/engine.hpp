// The deterministic parallel experiment engine.
//
// run_trials() shards the trial space [0, trials) into fixed-size shards and
// lets a work-stealing pool of worker threads claim shards from an atomic
// counter. Determinism survives the stealing because nothing a trial
// computes depends on WHERE it ran:
//
//   * trial seeds derive purely from (experiment_seed, trial_index)
//     (exp/seed.hpp) — no shared RNG, no thread ids;
//   * each trial builds its own sim::World; workers share no mutable state
//     but the claim counter and their private shard accumulators;
//   * the shard structure is a pure function of (trials, shard_size) — the
//     thread count only changes who runs a shard, never what a shard is;
//   * aggregation folds shard accumulators in ascending shard index on the
//     calling thread, after the barrier — a fixed merge tree, so the folded
//     doubles are bit-identical for ANY --threads value, including 1
//     (threads == 1 exercises the same shard/fold path).
//
// A run is one process from start to finish; a run that was killed is
// recovered by running it again.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/experiment.hpp"

namespace blunt::exp {

/// Shard granularity when neither the experiment nor the caller picks one.
/// Small enough that a 4-digit trial count still spreads over every core,
/// large enough that the claim counter is not contended per-trial.
inline constexpr int kDefaultShardSize = 32;

struct RunOptions {
  int threads = 1;
  /// Requested trial count; -1 = experiment default. Experiments with
  /// structured trial spaces may reinterpret or ignore it via
  /// Experiment::resolve_trials.
  std::int64_t trials = -1;
  /// Experiment seed override; when !has_seed, Experiment::default_seed.
  bool has_seed = false;
  std::uint64_t seed = 0;
  /// 0 = Experiment::default_shard_size, else kDefaultShardSize.
  int shard_size = 0;
  /// Extra thread counts to time: for each T the engine re-runs the full
  /// trial phase at T threads, records the wall clock in
  /// RunInfo::sweep_wall_ms, and asserts the merged result is bit-identical
  /// to the main pass — a built-in determinism self-check.
  std::vector<int> timing_sweep;
  /// Execution-coverage opt-in: sets TrialContext::coverage so trial bodies
  /// record fingerprints, and makes the fold compute the shard-indexed
  /// coverage-growth curve (RunInfo::coverage_growth). Off by default —
  /// coverage must cost nothing when unused.
  bool coverage = false;
  /// Deterministic-profiling opt-in: sets TrialContext::profile so trial
  /// bodies run profiled worlds and fold per-subsystem ProfileSnapshots into
  /// the accumulator. Exact profile counters are bit-identical for any
  /// --threads value; nanosecond timings are advisory. Off by default — the
  /// disabled path must be the exact pre-profiling hot path.
  bool profile = false;
};

struct RunOutput {
  Accumulator merged;
  RunInfo info;
};

/// Runs the trial phase (no finalize, no report). See the file comment for
/// the determinism contract. Throws std::invalid_argument, naming the
/// experiment, when a finalize-only experiment (no trial body) is asked for
/// a positive trial count.
[[nodiscard]] RunOutput run_trials(const Experiment& e, const RunOptions& opts);

}  // namespace blunt::exp
