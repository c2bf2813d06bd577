// Delta-debugging schedule shrinker: minimize a failing adversary schedule
// to a minimal replayable counterexample.
//
// Pipeline:
//   1. RecordingAdversary wraps any adversary and records each chosen event
//      as an EventDescriptor — (kind, pid, source_id, what), deliberately
//      dropping msg_id, because message ids shift when the schedule is
//      perturbed while the stable fields identify "the same" event.
//   2. shrink_schedule() runs ddmin [Zeller & Hildebrandt 2002] over the
//      recorded descriptor list against a caller-supplied failure predicate
//      (re-run the world under an EventReplayAdversary, lin-check the
//      history). The result is 1-minimal: removing any single remaining
//      descriptor makes the failure disappear.
//   3. to_scripted_program() pretty-prints the minimal schedule as a
//      compilable ScriptedAdversary program, turning a 1000-step chaos-soak
//      failure into a dozen-line regression test.
//
// EventReplayAdversary replays a descriptor list against a live world: at
// each step it scans the remaining descriptors' head; a descriptor that
// matches no currently enabled event is skipped (the event it described no
// longer exists in the perturbed execution — exactly what happens when ddmin
// removes one of its causes). An exhausted schedule falls back to the first
// enabled event so the run still terminates and can be judged.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace blunt::adversary {

/// A schedule event identified by its stable fields. msg_id is dropped on
/// purpose: ids are assigned in send order and shift under perturbation,
/// while (kind, pid, source_id, what) names the event by meaning.
struct EventDescriptor {
  sim::Event::Kind kind = sim::Event::Kind::kResume;
  Pid pid = -1;
  int source_id = -1;
  std::string what;

  friend bool operator==(const EventDescriptor&,
                         const EventDescriptor&) = default;
};

/// Wraps an inner adversary and records every event it chooses.
class RecordingAdversary final : public sim::Adversary {
 public:
  explicit RecordingAdversary(sim::Adversary& inner) : inner_(&inner) {}

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

  [[nodiscard]] const std::vector<EventDescriptor>& schedule() const {
    return schedule_;
  }

 private:
  sim::Adversary* inner_;
  std::vector<EventDescriptor> schedule_;
};

/// Replays a descriptor schedule (see file comment for skip/fallback rules).
///
/// Hardened against arbitrary (ddmin-reduced, truncated or hand-corrupted)
/// schedules: a descriptor that never matches is skipped, an exhausted or
/// fully-unmatchable schedule falls back to the first enabled event, and an
/// (out-of-contract) empty enabled set is answered with 0 rather than
/// indexed. Each such deviation is counted in skipped() or overflow_steps(),
/// never asserted, so a malformed schedule still yields a deterministic
/// execution.
class EventReplayAdversary final : public sim::Adversary {
 public:
  explicit EventReplayAdversary(std::vector<EventDescriptor> schedule)
      : schedule_(std::move(schedule)) {}

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

  /// Descriptors that matched no enabled event when their turn came.
  [[nodiscard]] int skipped() const { return skipped_; }
  /// Steps taken after the schedule ran out (first-enabled fallback).
  [[nodiscard]] int overflow_steps() const { return overflow_steps_; }

 private:
  std::vector<EventDescriptor> schedule_;
  std::size_t pos_ = 0;
  int skipped_ = 0;
  int overflow_steps_ = 0;
};

/// ddmin: returns a 1-minimal sub-sequence of `schedule` on which `fails`
/// still returns true. `fails(schedule)` must be true on entry (checked).
/// `fails` must be deterministic; it is invoked O(n^2) times worst case,
/// typically O(n log n). Tie-breaking is deterministic: at each granularity
/// chunks are probed left to right and the first failing candidate wins, so
/// equal-sized counterexamples always resolve to the earliest-index one.
[[nodiscard]] std::vector<EventDescriptor> shrink_schedule(
    const std::function<bool(const std::vector<EventDescriptor>&)>& fails,
    std::vector<EventDescriptor> schedule);

/// Pretty-prints a (minimal) schedule as a compilable ScriptedAdversary
/// program — the shape a human pastes into a regression test.
[[nodiscard]] std::string to_scripted_program(
    const std::vector<EventDescriptor>& schedule,
    const std::string& var = "adv");

}  // namespace blunt::adversary
