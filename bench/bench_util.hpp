// Shared builders and report plumbing for the benchmark suite.
//
// The implementations moved to src/exp/workloads.hpp so the experiment
// engine's registered experiments and the standalone benches share one copy;
// this header re-exports them under the historical blunt::bench names.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "exp/workloads.hpp"

namespace blunt::bench {

using exp::kWeakenerNumProcesses;
using exp::make_abd_weakener;
using exp::ProbeRun;
using exp::run_instrumented_weakener;
using exp::ensure_canonical_counters;
using exp::merge_probe;
using exp::set_bernoulli_metric;
using exp::set_exact_probability;
using exp::set_thm42_instance;
using exp::print_header;
using exp::print_rule;

/// exp::write_report for the standalone bench mains: a report that cannot
/// be written ends the bench with exit code 1, naming the path.
inline void write_report(obs::BenchReport& report) {
  try {
    exp::write_report(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench report FAILED: %s\n", e.what());
    std::exit(1);
  }
}

}  // namespace blunt::bench
