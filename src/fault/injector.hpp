// FaultInjector: executes a FaultPlan as a sim::FaultLayer, plus the
// ChaosAdversary that realizes the plan's crash schedule.
//
// The injector is pure interposition: networks route every send decision and
// every channel-blocked query through it, and the World ticks it once per
// scheduler step so partition opens/heals fire at their planned steps. Every
// fault it injects lands in the trace (StepKind::kFault) and on the fault.*
// counters, so faulty runs are debuggable and measurable through the
// ordinary observability machinery — and, because every decision is a pure
// function of (plan, execution so far), replayable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_hooks.hpp"
#include "sim/world.hpp"

namespace blunt::fault {

class FaultInjector final : public sim::FaultLayer {
 public:
  /// Binds the plan to `w`: installs itself as the world's fault layer and
  /// wires the fault.* counters / trace. Networks must still be pointed at
  /// it (e.g. AbdRegister::set_fault_layer) — the injector cannot reach
  /// inside objects. Must outlive the world's run.
  FaultInjector(FaultPlan plan, sim::World& w);

  // -- sim::FaultLayer --
  sim::SendFate on_send(const std::string& net, Pid from, Pid to) override;
  [[nodiscard]] bool channel_blocked(Pid from, Pid to) const override;
  bool on_step(sim::World& w) override;
  [[nodiscard]] bool tick_pending(const sim::World& w) const override;

  // -- Introspection (tests, benches) --
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] int losses_injected() const { return losses_; }
  [[nodiscard]] int duplicates_injected() const { return duplicates_; }
  [[nodiscard]] int partitions_opened() const { return opened_; }
  [[nodiscard]] int partitions_healed() const { return healed_; }
  [[nodiscard]] int crashes_injected() const { return crashes_injected_; }

  /// Called by ChaosAdversary when it executes one of the plan's crashes.
  void note_crash_injected();

 private:
  struct ChannelState {
    int sends = 0;   // per-channel send index — the hash stream position
    int losses = 0;  // budget consumed
    int dups = 0;
  };
  struct PartitionState {
    bool opened = false;
    bool healed = false;
  };

  FaultPlan plan_;
  sim::Trace* trace_;
  // Loss/dup land on the network's counters (it owns the send path); the
  // partition and crash counters live here.
  obs::Counter* opened_counter_ = nullptr;
  obs::Counter* healed_counter_ = nullptr;
  obs::Counter* crash_counter_ = nullptr;
  std::map<std::tuple<std::uint64_t, Pid, Pid>, ChannelState> channels_;
  std::vector<PartitionState> pstate_;
  int losses_ = 0;
  int duplicates_ = 0;
  int opened_ = 0;
  int healed_ = 0;
  int crashes_injected_ = 0;
};

/// Wraps an inner adversary and executes the plan's crash schedule: at the
/// first opportunity at or after each CrashAt::at_step it picks the kCrash
/// event of the scripted victim. The World's crash segment is hidden from
/// the inner adversary (EnabledView::without_crashes), so the plan's crashes
/// — and only the plan's crashes — happen, at deterministic points.
/// (Configure the world with max_crashes >= plan.crashes.size() so the
/// events exist.)
class ChaosAdversary final : public sim::Adversary {
 public:
  ChaosAdversary(sim::Adversary& inner, const FaultPlan& plan,
                 FaultInjector* injector = nullptr);

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

 private:
  sim::Adversary& inner_;
  const FaultPlan& plan_;
  FaultInjector* injector_;
  std::size_t crash_idx_ = 0;
};

}  // namespace blunt::fault
