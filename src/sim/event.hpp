// Scheduling events: the menu of choices the strong adversary picks from at
// every scheduler step.
//
// Section 2.4 models an adversary as a function from observed random values
// to complete schedules. Operationally, at each step the World enumerates the
// *enabled* events in a canonical, deterministic order and asks the Adversary
// for an index. Because enumeration order is canonical, a sequence of indices
// identifies a schedule, which is what the replay explorer enumerates.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace blunt::sim {

struct Event {
  enum class Kind {
    kResume,   // resume process `pid` (runs its next step)
    kDeliver,  // deliver message `msg_id` from delivery source `source_id`
    kCrash,    // crash process `pid` (only if crashes are enabled)
    kTick,     // advance scheduler time one step with no other effect (only
               // offered while the fault layer has step-indexed transitions
               // pending, e.g. a partition waiting to heal)
  };

  Kind kind = Kind::kResume;
  Pid pid = -1;        // acting / affected process
  int source_id = -1;  // for kDeliver
  int msg_id = -1;     // for kDeliver
  // Label of the step that will execute (for adversaries and debugging).
  // A borrowed view, not owned storage: it points into string literals,
  // long-lived object labels, coroutine-frame locals alive across the park,
  // or the summary strings of the World's per-source caches — all valid
  // until the next enabled_events() / execute() call (and an Event read
  // through an EnabledView is itself index storage, valid as long). Code
  // that retains events past that point (recording, shrinking) must copy
  // the Event and this label into a std::string. At reduced
  // Config::trace_detail, delivery-event labels are empty (their formatting
  // is the enumeration hot path's main allocation).
  std::string_view what;

  friend bool operator==(const Event&, const Event&) = default;
};

std::ostream& operator<<(std::ostream& os, const Event& e);

[[nodiscard]] std::string to_string(const Event& e);

}  // namespace blunt::sim
