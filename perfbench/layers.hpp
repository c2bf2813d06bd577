// The per-layer metrics every traced run prints. A workload fills the layers
// it enters; a layer it never enters reads 0 (mc_paper and wide_n never call
// lin or fault, and exact_game never calls sim).
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerMetrics {
  double enabled_scan_ns = 0.0;
  double events_offered = 0.0;
  double deliver_ns = 0.0;
  double deliveries_per_step = 0.0;
  double execute_resume_ns = 0.0;
  double choose_ns = 0.0;
  double world_build_us = 0.0;
  double steps_per_trial = 0.0;
  double steps_per_s = 0.0;
  double history_us = 0.0;
  double check_us = 0.0;
  double chain_us = 0.0;
  double ops_per_history = 0.0;
  double plan_us = 0.0;
  double injected_per_trial = 0.0;
  double retransmissions_per_trial = 0.0;
  double game_states = 0.0;
  double game_expansions = 0.0;
  double game_max_depth = 0.0;
  double game_states_per_s = 0.0;
  double game_bytes_per_state = 0.0;
  double parallel_efficiency = 0.0;
  double trace_overhead = 0.0;
  double clock_ns = 0.0;

  /// Fills the span-derived fields from the sum of a traced pass.
  void from_spans(const TrialTrace& sum, std::int64_t trials);
  void emit(Result& r) const;
};

}  // namespace perfbench
