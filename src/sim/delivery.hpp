// Interface between the World and message-passing substrates.
//
// The net module's Network<M> implements DeliverySource; the World enumerates
// pending deliveries as adversary-choosable events and executes the chosen
// one. Keeping only this interface in sim avoids a sim -> net dependency.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace blunt::sim {

class World;

struct PendingDelivery {
  int msg_id = -1;
  Pid to = -1;
  std::string summary;  // human-readable message description
};

/// A set of deliverable items the World offers to the adversary.
///
/// Staleness contract with the World's incremental enabled-index (DESIGN.md
/// §14): the World enumerates an attached source once, at its next scan,
/// and afterwards only after a resync. The source reports every change to
/// what enumerate() would return to the World it is attached to (world(),
/// under source_id()):
///  - World::source_event_insert / source_event_erase for one message;
///  - World::source_resync for any other change.
/// The World itself resyncs every source when its fault layer's channel
/// state changes (FaultLayer::on_step). An unattached source (world() ==
/// nullptr) reports nothing.
class DeliverySource {
 public:
  virtual ~DeliverySource() = default;

  /// Append all currently deliverable messages, in canonical (msg_id) order.
  /// `want_summaries` is false when the World runs at reduced trace detail:
  /// implementations must then leave `summary` empty instead of formatting
  /// one per message.
  virtual void enumerate(std::vector<PendingDelivery>& out,
                         bool want_summaries) const = 0;

  /// Deliver message `msg_id`: remove it from the in-transit set and run the
  /// recipient's handler synchronously. The handler may send further
  /// messages.
  virtual void deliver(int msg_id) = 0;

  /// Drop all in-transit messages addressed to a crashed process and stop
  /// accepting new ones for it.
  virtual void on_crash(Pid pid) = 0;

  /// Append one human-readable line per held or pending item, including
  /// messages currently severed by a partition (which enumerate() hides).
  /// Feeds the World's deadlock diagnostics; default: nothing to report.
  virtual void describe_pending(std::vector<std::string>& out) const {
    (void)out;
  }

 protected:
  /// The World this source is attached to (nullptr until World::attach) and
  /// the source id it assigned.
  [[nodiscard]] World* world() const { return world_; }
  [[nodiscard]] int source_id() const { return source_id_; }

 private:
  friend class World;
  World* world_ = nullptr;
  int source_id_ = -1;
};

}  // namespace blunt::sim
