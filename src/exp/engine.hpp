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
