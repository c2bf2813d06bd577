// Interposition points for deterministic fault injection.
//
// The fault subsystem (src/fault) sits between the network substrate and the
// scheduler: net::Network consults a FaultLayer on every send (lose?
// duplicate? is this channel severed by an active partition?) and on every
// enumeration, and the World consults it once per scheduler step so
// step-indexed faults (partition opens/heals) advance deterministically.
// Channel state changes only in that per-step call, whose result tells the
// World when it did. Keeping only this interface in sim avoids sim -> fault
// and net -> fault dependencies, mirroring DeliverySource.
//
// Determinism contract: every FaultLayer decision must be a pure function of
// the fault plan and the execution so far (per-channel send indices,
// scheduler step counts) — never of wall-clock time or unseeded randomness —
// so a faulty execution replays exactly from (coin script, event choices,
// plan).
#pragma once

#include <string>

#include "common/types.hpp"

namespace blunt::sim {

class World;

/// What happens to one point-to-point send. The default is a faithful
/// channel: not lost, exactly one copy enqueued.
struct SendFate {
  bool lose = false;  // message silently dropped at the sender's NIC
  int copies = 1;     // > 1: duplicates enqueued (each delivered separately)
};

class FaultLayer {
 public:
  virtual ~FaultLayer() = default;

  /// Consulted by a network once per point-to-point send (broadcasts call it
  /// once per recipient). `net` is the network's name.
  virtual SendFate on_send(const std::string& net, Pid from, Pid to) = 0;

  /// True while the ordered channel from -> to is severed by an active
  /// partition. Severed messages stay in transit (classic partition
  /// semantics: arbitrarily delayed, not lost) and become deliverable once
  /// the partition heals. The answer changes only inside on_step().
  virtual bool channel_blocked(Pid from, Pid to) const = 0;

  /// Called by the World at the start of every executed scheduler step, after
  /// the step counter advanced. Step-indexed fault transitions (partition
  /// opens/heals) fire here and append their own trace entries. Returns true
  /// when channel_blocked() may now answer differently for some channel; the
  /// World then re-enumerates every delivery source, since networks report
  /// no per-message change for the messages a partition hides or reveals.
  virtual bool on_step(World& w) = 0;

  /// True while some step-indexed transition still lies ahead. While true the
  /// World offers a kTick event, so simulated time can advance (and a pending
  /// heal can fire) even when no process or delivery event is enabled.
  virtual bool tick_pending(const World& w) const = 0;
};

}  // namespace blunt::sim
