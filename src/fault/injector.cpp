#include "fault/injector.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace blunt::fault {

namespace {

std::string mask_to_string(std::uint32_t mask, int n) {
  std::string a;
  std::string b;
  for (Pid p = 0; p < n; ++p) {
    std::string& side = ((mask >> p) & 1u) ? a : b;
    if (!side.empty()) side += ",";
    side += 'p';
    side += std::to_string(p);
  }
  return "{" + a + "}|{" + b + "}";
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, sim::World& w)
    : plan_(std::move(plan)),
      trace_(&w.trace_mutable()),
      pstate_(plan_.partitions.size()) {
  if (obs::MetricsRegistry* m = w.metrics()) {
    opened_counter_ = m->counter(obs::kFaultPartitionsOpened);
    healed_counter_ = m->counter(obs::kFaultPartitionsHealed);
    crash_counter_ = m->counter(obs::kFaultCrashesInjected);
  }
  w.set_fault_layer(this);
}

sim::SendFate FaultInjector::on_send(const std::string& net, Pid from,
                                     Pid to) {
  ChannelState& ch = channels_[{hash_name(net), from, to}];
  const int idx = ch.sends++;
  const std::uint64_t base =
      mix64(plan_.seed ^ hash_name(net)) ^
      mix64((static_cast<std::uint64_t>(from) << 40) ^
            (static_cast<std::uint64_t>(to) << 20) ^
            static_cast<std::uint64_t>(idx));
  sim::SendFate fate;
  if (plan_.loss_permille > 0 && ch.losses < plan_.loss_budget_per_channel &&
      mix64(base ^ 0x105eULL) % 1000 < plan_.loss_permille) {
    ++ch.losses;
    ++losses_;
    fate.lose = true;  // the network traces and counts the loss
    return fate;
  }
  if (plan_.dup_permille > 0 && ch.dups < plan_.dup_budget_per_channel &&
      mix64(base ^ 0xd0bULL) % 1000 < plan_.dup_permille) {
    ++ch.dups;
    ++duplicates_;
    fate.copies = 2;
  }
  return fate;
}

bool FaultInjector::channel_blocked(Pid from, Pid to) const {
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const PartitionState& st = pstate_[i];
    if (st.opened && !st.healed && plan_.partitions[i].separates(from, to)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::on_step(sim::World& w) {
  const int step = w.steps_executed();
  bool changed = false;
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const Partition& p = plan_.partitions[i];
    PartitionState& st = pstate_[i];
    if (!st.opened && step >= p.open_step) {
      st.opened = true;
      changed = true;
      ++opened_;
      if (opened_counter_ != nullptr) opened_counter_->inc();
      if (trace_->recording()) {
        trace_->append(
            {.pid = -1,
             .kind = sim::StepKind::kFault,
             .what = "partition open " +
                     mask_to_string(p.side_mask, plan_.num_processes),
             .inv = -1,
             .value = {}});
      } else {
        trace_->skip();
      }
    }
    if (st.opened && !st.healed && step >= p.heal_step) {
      st.healed = true;
      changed = true;
      ++healed_;
      if (healed_counter_ != nullptr) healed_counter_->inc();
      if (trace_->recording()) {
        trace_->append(
            {.pid = -1,
             .kind = sim::StepKind::kFault,
             .what = "partition heal " +
                     mask_to_string(p.side_mask, plan_.num_processes),
             .inv = -1,
             .value = {}});
      } else {
        trace_->skip();
      }
    }
  }
  return changed;
}

bool FaultInjector::tick_pending(const sim::World&) const {
  for (const PartitionState& st : pstate_) {
    if (!st.healed) return true;
  }
  return false;
}

void FaultInjector::note_crash_injected() {
  ++crashes_injected_;
  if (crash_counter_ != nullptr) crash_counter_->inc();
}

ChaosAdversary::ChaosAdversary(sim::Adversary& inner, const FaultPlan& plan,
                               FaultInjector* injector)
    : inner_(inner), plan_(plan), injector_(injector) {}

std::size_t ChaosAdversary::choose(const sim::World& w,
                                   const sim::EnabledView& enabled) {
  // Execute due scripted crashes first. A due crash whose victim is already
  // finished (or whose event is otherwise gone) is skipped permanently.
  while (crash_idx_ < plan_.crashes.size() &&
         w.steps_executed() >= plan_.crashes[crash_idx_].at_step) {
    const Pid victim = plan_.crashes[crash_idx_].pid;
    bool found = false;
    std::size_t found_idx = 0;
    for (const sim::Event& e : enabled) {
      if (e.kind == sim::Event::Kind::kCrash && e.pid == victim) {
        found = true;
        break;
      }
      ++found_idx;
    }
    ++crash_idx_;
    if (found) {
      if (injector_ != nullptr) injector_->note_crash_injected();
      return found_idx;
    }
  }
  // Hide crash events from the inner adversary: only the plan crashes.
  const sim::EnabledView rest = enabled.without_crashes();
  if (rest.empty()) return 0;  // only crash events left; pick any
  const std::size_t idx = inner_.choose(w, rest);
  BLUNT_ASSERT(idx < rest.size(), "inner adversary chose out of range");
  return enabled.with_crashes_index(idx);
}

}  // namespace blunt::fault
