// The report-producing wrapper around the engine: run an experiment's trial
// phase, hand the merged accumulator to its serial finalize hook, stamp
// engine provenance and wall clocks, and write the standard schema-v1
// BENCH_<name>.json. The `blunt_exp` CLI funnels through here.
#pragma once

#include <string>

#include "exp/engine.hpp"

namespace blunt::exp {

/// Runs `e` under `opts` and writes its report. Returns the process exit
/// code (the finalize hook's, usually 0). Throws when a trial fails or the
/// report cannot be written.
///
/// Engine provenance lands in the report's environment section
/// (engine_threads, engine_shard_size, engine_seed, engine_trials,
/// engine_shards_total) and the trial-phase wall clock in timings_ms
/// ("engine_trials") — both outside the metrics section, so fixed-seed
/// reports differ across thread counts ONLY in provenance and timing keys.
/// A run whose trials recorded profiles (scaling_probe) also writes a
/// collapsed-stack flamegraph, BENCH_<name>.flame.txt, next to the report.
int run_and_report(const Experiment& e, const RunOptions& opts);

/// Looks `name` up in the registry (registering builtins first) and runs it.
/// Unknown names print to stderr and return 2; a run that throws (a trial
/// error, or a report or corpus file that cannot be written) prints the
/// error, which names the file, and returns 1.
int run_registered(const std::string& name, const RunOptions& opts);

}  // namespace blunt::exp
