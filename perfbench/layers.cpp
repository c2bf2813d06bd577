#include "layers.hpp"

namespace perfbench {
namespace {

double per(std::int64_t num, std::int64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den) /
                        scale;
}

}  // namespace

void LayerMetrics::from_spans(const TrialTrace& sum, std::int64_t trials) {
  enabled_scan_ns = per(sum[Span::kEnabledScan].ns, sum.steps);
  events_offered = per(sum.events_offered, sum.steps);
  deliver_ns = per(sum[Span::kDeliver].ns, sum[Span::kDeliver].calls);
  deliveries_per_step = per(sum[Span::kDeliver].calls, sum.steps);
  execute_resume_ns =
      per(sum[Span::kExecuteResume].ns, sum[Span::kExecuteResume].calls);
  choose_ns = per(sum[Span::kChoose].ns, sum[Span::kChoose].calls);
  world_build_us =
      per(sum[Span::kWorldBuild].ns, sum[Span::kWorldBuild].calls, 1e3);
  steps_per_trial = per(sum.steps, trials);
  history_us = per(sum[Span::kLinHistory].ns, sum[Span::kLinHistory].calls,
                   1e3);
  check_us = per(sum[Span::kLinCheck].ns, sum[Span::kLinCheck].calls, 1e3);
  chain_us = per(sum[Span::kLinChain].ns, sum[Span::kLinChain].calls, 1e3);
  ops_per_history = per(sum.ops, sum[Span::kLinHistory].calls);
  plan_us = per(sum[Span::kFaultPlan].ns, sum[Span::kFaultPlan].calls, 1e3);
}

void LayerMetrics::emit(Result& r) const {
  r.metric("sim.enabled_scan_ns", enabled_scan_ns, "ns");
  r.metric("sim.events_offered", events_offered, "events/step");
  r.metric("net.deliver_ns", deliver_ns, "ns");
  r.metric("net.deliveries_per_step", deliveries_per_step, "deliveries/step");
  r.metric("sim.execute_resume_ns", execute_resume_ns, "ns");
  r.metric("adversary.choose_ns", choose_ns, "ns");
  r.metric("sim.world_build_us", world_build_us, "us");
  r.metric("sim.steps_per_trial", steps_per_trial, "steps");
  r.metric("sim.steps_per_s", steps_per_s, "steps/s");
  r.metric("lin.history_us", history_us, "us");
  r.metric("lin.check_us", check_us, "us");
  r.metric("lin.chain_us", chain_us, "us");
  r.metric("lin.ops_per_history", ops_per_history, "ops");
  r.metric("fault.plan_us", plan_us, "us");
  r.metric("fault.injected_per_trial", injected_per_trial, "faults");
  r.metric("fault.retransmissions_per_trial", retransmissions_per_trial,
           "resends");
  r.metric("game.states", game_states, "states");
  r.metric("game.expansions", game_expansions, "expansions");
  r.metric("game.max_depth", game_max_depth, "levels");
  r.metric("game.states_per_s", game_states_per_s, "states/s");
  r.metric("game.bytes_per_state", game_bytes_per_state, "B");
  r.metric("exp.parallel_efficiency", parallel_efficiency, "ratio");
  r.metric("trace.overhead", trace_overhead, "ratio");
  r.metric("trace.clock_ns", clock_ns, "ns");
}

}  // namespace perfbench
