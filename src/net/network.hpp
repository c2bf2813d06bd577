// Asynchronous, unordered, reliable-until-crash message passing — with an
// optional fault-injection interposition layer.
//
// One Network<M> instance models the channels of one protocol instance (e.g.
// one ABD register). Messages go into an in-transit multiset; the World's
// adversary chooses every delivery (and hence arbitrary reordering and
// arbitrary delay — the asynchronous model of the paper's Section 2.1).
// Delivering a message runs the recipient's handler synchronously within the
// same scheduler step, matching Algorithm 3's atomic "when ... is received"
// blocks; handlers may send further messages.
//
// Crash semantics (crash-stop): once a process crashes, messages addressed
// to it are dropped (in transit and future), its handler never runs again,
// and it can no longer inject messages — a send from a crashed pid (e.g. a
// queued resend firing late) is silently discarded. Messages it already sent
// remain in transit and may still be delivered, as in the standard model.
//
// Fault layer (src/fault): when set_fault_layer is called, every send
// consults the layer (the message may be lost at the sender, or duplicated),
// and enumerate() hides messages whose (from, to) channel is severed by an
// active partition — they stay in transit and become deliverable when the
// partition heals. Every fault decision is deterministic (see
// sim/fault_hooks.hpp), so faulty executions replay exactly.
//
// Enabled-index integration (DESIGN.md §14): once attached to a World, the
// network pushes every send, delivery and crash-drop of a deliverable
// message to the World's incremental enabled-index. A message on a severed
// channel is not deliverable, so its send and its crash-drop push nothing.
// Which channels are severed changes only when a partition opens or heals,
// after which the World re-enumerates every source (FaultLayer::on_step),
// or when set_fault_layer swaps the layer, which resyncs this network.
//
// Storage: a delivery or crash-drop tombstones its envelope in place rather
// than erasing it from the middle of the in-transit vector (which would
// move every later envelope and its payload). Dead slots are compacted away
// only once they outnumber the live ones. Ids are dense and monotone, so an
// id -> position table beside the vector finds a delivery's envelope with
// one load; compaction rewrites it. A delivery costs O(1) amortized however
// many messages are in flight, and each payload is copied once per
// recipient.
#pragma once

#include <concepts>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "sim/delivery.hpp"
#include "sim/fault_hooks.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace blunt::net {

template <typename M>
concept MessageType = requires(const M& m) {
  { m.summary() } -> std::convertible_to<std::string>;
};

template <MessageType M>
class Network final : public sim::DeliverySource {
 public:
  /// Handler invoked on delivery: (recipient, sender, message).
  using Handler = std::function<void(Pid, Pid, const M&)>;

  /// `trace` may be null (no recording); normally the World's trace.
  /// `metrics` may be null (normally World::metrics(), also null when
  /// observability is off); when set, sends/deliveries/drops feed the
  /// net.* counters shared by every network on the registry.
  Network(std::string name, int num_processes, sim::Trace* trace,
          obs::MetricsRegistry* metrics = nullptr)
      : name_(std::move(name)),
        num_processes_(num_processes),
        trace_(trace),
        metrics_(metrics) {
    BLUNT_ASSERT(num_processes_ > 0, "Network with no processes");
    handlers_.resize(static_cast<std::size_t>(num_processes_));
    crashed_.resize(static_cast<std::size_t>(num_processes_), 0);
    if (metrics_ != nullptr) {
      sent_counter_ = metrics_->counter(obs::kMessagesSent);
      delivered_counter_ = metrics_->counter(obs::kMessagesDelivered);
      dropped_counter_ = metrics_->counter(obs::kMessagesDropped);
    }
  }

  void set_handler(Pid pid, Handler h) {
    check_pid(pid);
    handlers_[static_cast<std::size_t>(pid)] = std::move(h);
  }

  /// Interposes `layer` on every subsequent send/enumerate (nullptr =
  /// faithful channels, the default). May be called at any time: the
  /// layer decides which held messages enumerate() hides, so an attached
  /// network asks the World to re-enumerate it.
  void set_fault_layer(sim::FaultLayer* layer) {
    fault_layer_ = layer;
    if (layer != nullptr && metrics_ != nullptr) {
      lost_counter_ = metrics_->counter(obs::kFaultMessagesLost);
      duplicated_counter_ = metrics_->counter(obs::kFaultMessagesDuplicated);
    }
    if (world() != nullptr) world()->source_resync(source_id());
  }

  /// Point-to-point send (self-sends allowed; ABD nodes message themselves).
  /// The last copy the fault layer asks for takes `msg` itself.
  void send(Pid from, Pid to, M msg) {
    check_pid(from);
    check_pid(to);
    ++messages_sent_;
    if (sent_counter_ != nullptr) sent_counter_->inc();
    if (crashed_[static_cast<std::size_t>(from)]) {
      // crash-stop: a dead sender injects nothing
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      return;
    }
    if (crashed_[static_cast<std::size_t>(to)]) {  // dropped
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      return;
    }
    sim::SendFate fate;
    if (fault_layer_ != nullptr) fate = fault_layer_->on_send(name_, from, to);
    if (fate.lose) {
      ++messages_lost_;
      if (lost_counter_ != nullptr) lost_counter_->inc();
      if (trace_ != nullptr) {
        if (trace_->recording()) {
          trace_->append({.pid = from,
                          .kind = sim::StepKind::kFault,
                          .what = name_ + "→p" + std::to_string(to) +
                                  " LOST " + msg.summary(),
                          .inv = -1,
                          .value = {}});
        } else {
          trace_->skip();
        }
      }
      return;
    }
    BLUNT_ASSERT(fate.copies >= 1, "send fate with no copies");
    for (int copy = 0; copy < fate.copies; ++copy) {
      const int id = next_id_++;
      if (trace_ != nullptr) {
        if (trace_->recording()) {
          trace_->append({.pid = from,
                          .kind = copy == 0 ? sim::StepKind::kSend
                                            : sim::StepKind::kFault,
                          .what = name_ + "→p" + std::to_string(to) +
                                  (copy == 0 ? " " : " DUP ") + msg.summary(),
                          .inv = -1,
                          .value = {}});
        } else {
          trace_->skip();
        }
      }
      if (copy > 0) {
        ++messages_duplicated_;
        if (duplicated_counter_ != nullptr) duplicated_counter_->inc();
      }
      const bool deliverable = world() != nullptr && !severed(from, to);
      std::string summary = deliverable && world()->trace().recording()
                                ? name_ + " " + msg.summary() + " from p" +
                                      std::to_string(from)
                                : std::string();
      // ids are monotone, so the vector stays sorted by append.
      pos_of_.push_back(static_cast<int>(in_transit_.size()));
      if (copy + 1 == fate.copies) {
        in_transit_.emplace_back(id, from, to, std::move(msg), false);
      } else {
        in_transit_.emplace_back(id, from, to, msg, false);
      }
      if (deliverable) {
        world()->source_event_insert(source_id(), id, to, std::move(summary));
      }
    }
  }

  /// Send to every process, including the sender (Algorithm 3's broadcast).
  /// The last recipient's send takes `msg` itself.
  void broadcast(Pid from, M msg) {
    for (Pid to = 0; to + 1 < num_processes_; ++to) send(from, to, msg);
    send(from, num_processes_ - 1, std::move(msg));
  }

  // -- DeliverySource --

  void enumerate(std::vector<sim::PendingDelivery>& out,
                 bool want_summaries) const override {
    for (const Envelope& env : in_transit_) {
      if (env.dead) continue;
      if (severed(env.from, env.to)) {
        continue;  // held by a partition until it heals
      }
      out.push_back({env.id, env.to,
                     want_summaries ? name_ + " " + env.payload.summary() +
                                          " from p" + std::to_string(env.from)
                                    : std::string()});
    }
  }

  void deliver(int msg_id) override {
    Envelope* const env = find_live(msg_id);
    BLUNT_ASSERT(env != nullptr, "deliver of unknown msg " << msg_id);
    // The handler may send, growing in_transit_: take the payload out first.
    const Pid from = env->from;
    const Pid to = env->to;
    const M payload = std::move(env->payload);
    env->dead = true;
    ++dead_;
    compact_if_sparse();
    if (world() != nullptr) world()->source_event_erase(source_id(), msg_id);
    BLUNT_ASSERT(!crashed_[static_cast<std::size_t>(to)],
                 "deliver to crashed p" << to);
    ++messages_delivered_;
    if (delivered_counter_ != nullptr) delivered_counter_->inc();
    const Handler& h = handlers_[static_cast<std::size_t>(to)];
    BLUNT_ASSERT(h, "no handler registered for p" << to << " on " << name_);
    h(to, from, payload);
  }

  void on_crash(Pid pid) override {
    crashed_[static_cast<std::size_t>(pid)] = 1;
    for (Envelope& env : in_transit_) {
      if (env.dead || env.to != pid) continue;
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      if (world() != nullptr && !severed(env.from, env.to)) {
        world()->source_event_erase(source_id(), env.id);
      }
      env.dead = true;
      ++dead_;
    }
    compact_if_sparse();
  }

  void describe_pending(std::vector<std::string>& out) const override {
    for (const Envelope& env : in_transit_) {
      if (env.dead) continue;
      const bool blocked = severed(env.from, env.to);
      out.push_back(name_ + " msg" + std::to_string(env.id) + " p" +
                    std::to_string(env.from) + "→p" + std::to_string(env.to) +
                    " " + env.payload.summary() +
                    (blocked ? " [held by partition]" : " [deliverable]"));
    }
  }

  // -- Introspection --

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int in_transit_count() const {
    return static_cast<int>(in_transit_.size()) - dead_;
  }
  [[nodiscard]] int messages_sent() const { return messages_sent_; }
  [[nodiscard]] int messages_delivered() const { return messages_delivered_; }
  [[nodiscard]] int messages_lost() const { return messages_lost_; }
  [[nodiscard]] int messages_duplicated() const {
    return messages_duplicated_;
  }

 private:
  struct Envelope {
    int id;
    Pid from;
    Pid to;
    M payload;
    bool dead;  // tombstone: delivered or crash-dropped, awaiting compaction
  };

  /// Tombstones below this count are never compacted: small in-transit sets
  /// (a handful of messages) would otherwise compact on most deliveries.
  static constexpr int kCompactFloor = 8;

  void check_pid(Pid pid) const {
    BLUNT_ASSERT(pid >= 0 && pid < num_processes_,
                 "bad pid " << pid << " on network " << name_);
  }

  /// True while the fault layer holds messages on channel from -> to.
  [[nodiscard]] bool severed(Pid from, Pid to) const {
    return fault_layer_ != nullptr && fault_layer_->channel_blocked(from, to);
  }

  /// The live envelope with id `msg_id`, or nullptr: one table load.
  [[nodiscard]] Envelope* find_live(int msg_id) {
    if (msg_id < first_id_ || msg_id >= next_id_) return nullptr;
    const int pos = pos_of_[static_cast<std::size_t>(msg_id - first_id_)];
    if (pos < 0) return nullptr;
    Envelope& env = in_transit_[static_cast<std::size_t>(pos)];
    return env.dead ? nullptr : &env;
  }

  /// Drops the tombstones once they outnumber the live envelopes, and
  /// rebases the position table on the first stored id; each compaction is
  /// paid for by the deliveries that made the tombstones.
  void compact_if_sparse() {
    const int live = static_cast<int>(in_transit_.size()) - dead_;
    if (dead_ < kCompactFloor || dead_ <= live) return;
    std::erase_if(in_transit_, [](const Envelope& e) { return e.dead; });
    dead_ = 0;
    first_id_ = in_transit_.empty() ? next_id_ : in_transit_.front().id;
    pos_of_.assign(static_cast<std::size_t>(next_id_ - first_id_), -1);
    for (std::size_t i = 0; i < in_transit_.size(); ++i) {
      pos_of_[static_cast<std::size_t>(in_transit_[i].id - first_id_)] =
          static_cast<int>(i);
    }
  }

  std::string name_;
  int num_processes_;
  sim::Trace* trace_;
  obs::MetricsRegistry* metrics_;
  sim::FaultLayer* fault_layer_ = nullptr;
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* lost_counter_ = nullptr;
  obs::Counter* duplicated_counter_ = nullptr;
  std::vector<Handler> handlers_;
  // Sorted by id (monotone assignment => append keeps order, and tombstones
  // keep their ids). Replaced the historical std::map: same canonical
  // enumeration order, no node allocations on the send path.
  std::vector<Envelope> in_transit_;
  int dead_ = 0;  // tombstones in in_transit_
  // pos_of_[id - first_id_] is envelope id's position in in_transit_, or -1
  // once compaction has dropped it. It spans the ids from the first stored
  // envelope's to next_id_ - 1: a send appends, a compaction rebases it.
  std::vector<int> pos_of_;
  int first_id_ = 0;
  std::vector<char> crashed_;  // indexed by pid
  int next_id_ = 0;
  int messages_sent_ = 0;
  int messages_delivered_ = 0;
  int messages_lost_ = 0;
  int messages_duplicated_ = 0;
};

}  // namespace blunt::net
