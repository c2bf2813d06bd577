// A deterministic adversary driven by a script of event matchers — the
// vehicle for hand-crafted schedules like the Figure 1 counter-example.
//
// Each script entry either:
//  * matches exactly one enabled event (Step) — the adversary picks it and
//    advances; it is an error if no enabled event matches (the schedule the
//    paper describes must be realizable);
//  * drives the world with a priority policy until a condition holds
//    (Drive) — used for protocol tails whose exact order doesn't matter
//    beyond the stated priorities; or
//  * splices in more entries computed from the current world (Branch) —
//    used to branch on the observed coin, which a strong adversary may do
//    (Section 2.4: schedules depend on past random values).
//
// When the script is exhausted the adversary falls back to the first enabled
// event and counts overflow steps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace blunt::adversary {

using Matcher = std::function<bool(const sim::World&, const sim::Event&)>;

/// Matches a resume of process `pid` whose pending label contains `what`
/// (empty = any label).
[[nodiscard]] Matcher resume(Pid pid, std::string what = "");

/// Matches a delivery to `to` whose description contains `what`.
[[nodiscard]] Matcher deliver(Pid to, std::string what);

/// Matches a delivery to `to` whose description contains every entry of
/// `parts` (message summaries interleave payload fields, e.g.
/// "R update sn=1 val=1 ts=(1,1) from p1").
[[nodiscard]] Matcher deliver(Pid to, std::vector<std::string> parts);

/// Matches the crash event of process `pid` (requires a crash budget).
[[nodiscard]] Matcher crash(Pid pid);

/// Matches the fault-layer tick event (enabled while a partition waits to
/// heal).
[[nodiscard]] Matcher tick();

/// Matches any event whose description contains `what`.
[[nodiscard]] Matcher any_event(std::string what);

class ScriptedAdversary final : public sim::Adversary {
 public:
  /// Appends a single-event step.
  ScriptedAdversary& step(std::string name, Matcher m);

  /// Appends a drive: until `until(world)` holds, repeatedly picks the
  /// enabled event matching the earliest entry of `priorities` (an event
  /// matching priorities[0] beats one matching priorities[1], ...). It is an
  /// error if `until` is false and nothing matches.
  ScriptedAdversary& drive(std::string name, std::vector<Matcher> priorities,
                           std::function<bool(const sim::World&)> until);

  /// Appends a branch hook: when reached, `expand` is invoked once with the
  /// current world and its returned sub-script is spliced in.
  ScriptedAdversary& branch(
      std::string name,
      std::function<void(const sim::World&, ScriptedAdversary&)> expand);

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

  [[nodiscard]] int overflow_steps() const { return overflow_steps_; }
  [[nodiscard]] bool script_finished() const { return pos_ >= entries_.size(); }

 private:
  struct Entry {
    std::string name;
    Matcher match;  // Step
    std::vector<Matcher> priorities;  // Drive
    std::function<bool(const sim::World&)> until;  // Drive
    std::function<void(const sim::World&, ScriptedAdversary&)> expand;  // Branch
  };

  std::vector<Entry> entries_;
  std::size_t pos_ = 0;
  int overflow_steps_ = 0;
};

}  // namespace blunt::adversary
