// The ABD register (Algorithm 3) and its preamble-iterated version ABD^k
// (Algorithm 4).
//
// One AbdRegister instance simulates one shared register replicated across n
// crash-prone processes communicating by asynchronous messages. Every process
// is both a client (it may invoke Read/Write) and a server (it stores a
// (val, ts) replica and answers query/update messages in atomic "when
// received" handlers).
//
//   Read():  (v,u) := queryPhase();          // preamble — line 22 = Π(Read)
//            updatePhase(v,u); return v      // write-back
//   Write(v): (-,(t,-)) := queryPhase();     // preamble — line 26 = Π(Write)
//            updatePhase(v,(t+1,i)); return
//
// With k >= 2 preamble iterations, each operation runs the query phase k
// times and picks one result uniformly at random (an *object random step*,
// Section 4.3) — Algorithm 4 verbatim. k = 1 is the original, deterministic
// ABD.
//
// The preamble is effect-free (Section 4.1): a query phase sends query
// messages and collects replies; answering a query does not change the
// responder's (val, ts), so iterating it perturbs nothing.
//
// Variants: the multi-writer Lynch–Shvartsman version above (default), and
// the original single-writer ABD [3] in which the unique writer skips the
// query phase and stamps writes from a local counter (its Write preamble is
// empty, so only Read is iterated).
//
// Fault tolerance beyond crashes: quorum counting is idempotent — each
// phase tracks its distinct responders in a pid bitset, so a
// duplicated kReply/kAck never double-counts toward a quorum, and a
// retransmitted query/update elicits at most one counted response per
// server. With Options::max_retransmits > 0, each phase arms a bounded
// resend token exposed to the scheduler as an ordinary delivery event
// ("modeled as a schedulable resend event"): the adversary decides when —
// and whether — a phase rebroadcasts, so retransmission is replayable and
// costs nothing when no messages were lost. Re-applying an update is
// idempotent (timestamps are monotone), so retransmission preserves
// linearizability.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "lin/strong.hpp"
#include "net/network.hpp"
#include "objects/register_object.hpp"
#include "sim/world.hpp"

namespace blunt::objects {

struct AbdMessage {
  enum class Type { kQuery, kReply, kUpdate, kAck };

  Type type = Type::kQuery;
  int sn = 0;  // client sequence number identifying the phase
  sim::Value val;
  Timestamp ts{0, 0};

  [[nodiscard]] std::string summary() const;
};

enum class AbdVariant {
  kMultiWriter,   // Lynch–Shvartsman [20]: both Read and Write query first
  kSingleWriter,  // original ABD [3]: the sole writer stamps locally
};

/// Deliberately plantable protocol bugs — validation targets for the chaos
/// harness and the schedule shrinker (a correct implementation never
/// produces a counterexample; a planted bug must).
enum class AbdBug {
  kNone,
  /// Quorum of floor(n/2) instead of the majority floor(n/2)+1: two phases
  /// may touch disjoint replica sets, so a read can miss a completed write.
  kSubMajorityQuorum,
};

class AbdRegister final : public RegisterObject {
 public:
  struct Options {
    int num_processes = 3;
    sim::Value initial;            // v0, defaults to ⊥
    int preamble_iterations = 1;   // k; >= 2 gives ABD^k
    AbdVariant variant = AbdVariant::kMultiWriter;
    Pid single_writer = 0;         // only for kSingleWriter
    /// > 0: every query/update phase may rebroadcast up to this many times,
    /// as adversary-schedulable resend events. 0 (default) disables
    /// retransmission — the original single-broadcast Algorithm 3.
    int max_retransmits = 0;
    AbdBug bug = AbdBug::kNone;
  };

  // Control points of Algorithm 3 used as preamble ends (Section 5.1).
  static constexpr int kReadPreambleLine = 22;
  static constexpr int kWritePreambleLine = 26;

  AbdRegister(std::string name, sim::World& w, Options opts);

  sim::Task<sim::Value> read(sim::Proc p) override;
  sim::Task<void> write(sim::Proc p, sim::Value v) override;

  [[nodiscard]] int object_id() const override { return object_id_; }
  [[nodiscard]] const std::string& name() const override { return name_; }

  /// Routes this register's messages through the fault layer (loss,
  /// duplication, partitions). nullptr restores faithful channels.
  void set_fault_layer(sim::FaultLayer* layer) {
    net_.set_fault_layer(layer);
  }

  /// Π_ABD: Read -> line 22, Write -> line 26 (trivial Write preamble for the
  /// single-writer variant).
  [[nodiscard]] lin::PreambleMapping preamble_mapping() const;

  [[nodiscard]] int quorum() const { return quorum_; }
  [[nodiscard]] int messages_sent() const { return net_.messages_sent(); }
  [[nodiscard]] int query_phases_run() const { return query_phases_run_; }
  [[nodiscard]] int retransmissions() const { return retransmissions_; }

  /// The replica state of process `pid` (tests/debug only).
  [[nodiscard]] std::pair<sim::Value, Timestamp> replica(Pid pid) const;

 private:
  struct Server {
    sim::Value val;
    Timestamp ts{0, 0};
  };
  /// One client's quorum bookkeeping. A client runs its phases one at a
  /// time, and only the current phase (sn == next_sn - 1) is ever polled,
  /// so its distinct-responder count and its running maximum-timestamp
  /// reply are kept once per client and reset when the next phase begins:
  /// phase_satisfied is a single integer compare, and a query phase reads
  /// its result off best_val/best_ts directly. The running max equals the
  /// maximum over the distinct responders' first replies, since a full
  /// timestamp (number, pid) determines its value and the compare is
  /// strictly-greater. Every phase, finished ones included, keeps its
  /// responder set, so a late duplicate reply or ack is still dropped
  /// before it can count or wake the client: one 64-bit word per phase for
  /// n <= 64, words_per_phase_ words per phase in general, in one vector
  /// reserved for a few operations' phases on the client's first phase.
  struct Client {
    int next_sn = 0;
    std::uint32_t count = 0;  // distinct responders to the current phase
    bool any = false;         // a reply folded into best (query phases)
    sim::Value best_val;
    Timestamp best_ts{0, 0};
    // Responder pid bitsets by phase: phase sn owns words
    // [sn * words_per_phase_, (sn + 1) * words_per_phase_).
    std::vector<std::uint64_t> responders;
  };

  /// Bounded per-phase resend tokens, exposed to the World as schedulable
  /// delivery events: "delivering" a token rebroadcasts its phase message.
  /// Tokens of satisfied phases (and of crashed clients) are not offered.
  class ResendSource final : public sim::DeliverySource {
   public:
    explicit ResendSource(AbdRegister* reg) : reg_(reg) {}

    void arm(Pid client, int sn, AbdMessage msg, int retries);
    void disarm(Pid client, int sn);

    void enumerate(std::vector<sim::PendingDelivery>& out,
                   bool want_summaries) const override;
    void deliver(int msg_id) override;
    void on_crash(Pid pid) override;
    void describe_pending(std::vector<std::string>& out) const override;

    /// enumerate() depends on the token set AND on phase_satisfied, so the
    /// register calls this on every token mutation and whenever a phase
    /// reaches its quorum: the World then re-enumerates the tokens. No-op
    /// while unattached (retransmission off).
    void resync() const {
      if (world() != nullptr) world()->source_resync(source_id());
    }

   private:
    struct Token {
      Pid client = -1;
      int sn = 0;
      AbdMessage msg;
      int retries_left = 0;
    };

    AbdRegister* reg_;
    std::map<int, Token> tokens_;  // keyed by token id => canonical order
    int next_token_ = 0;
  };

  /// Lines 5–10: broadcast query, await a quorum of replies, return the
  /// (value, timestamp) pair with the largest timestamp.
  sim::Task<std::pair<sim::Value, Timestamp>> query_phase(sim::Proc p,
                                                          InvocationId inv);
  /// Lines 13–16: broadcast update(v, u), await a quorum of acks.
  sim::Task<void> update_phase(sim::Proc p, InvocationId inv, sim::Value v,
                               Timestamp u);
  /// The "when received" handlers (lines 11–12 and 18–20).
  void handle(Pid to, Pid from, const AbdMessage& m);

  /// True once the phase `sn` of `client` has its quorum (distinct
  /// responders only). O(1): one bounds check and one integer compare.
  [[nodiscard]] bool phase_satisfied(Pid client, int sn,
                                     AbdMessage::Type type) const;

  /// Starts the client's next phase (an empty responder set, a zero count
  /// and no reply yet) and returns its sequence number.
  int begin_phase(Client& cli);
  /// Records `from` as a responder to phase `sn` of `cli`; false if it
  /// already was, so the message is a duplicate.
  [[nodiscard]] bool first_response(Client& cli, int sn, Pid from);

  std::string name_;
  // Step labels precomputed once: the phase hot paths park with borrowed
  // views into these instead of concatenating a fresh string per yield.
  std::string label_query_bcast_;
  std::string label_query_quorum_;
  std::string label_update_bcast_;
  std::string label_update_quorum_;
  std::string label_choose_iteration_;
  sim::World& world_;
  Options opts_;
  int object_id_;
  int quorum_;
  std::size_t words_per_phase_;  // responder bitset words per phase
  // Observability (null when the World's metrics are off).
  obs::Counter* quorum_round_trips_ = nullptr;
  // Profiling (null when the World's profiler is off): quorum bookkeeping
  // touches, attributed to obs::Phase::kQuorum.
  obs::Profiler* prof_ = nullptr;
  obs::Counter* preamble_executed_ = nullptr;
  obs::Counter* preamble_kept_ = nullptr;
  obs::Counter* retransmission_counter_ = nullptr;
  net::Network<AbdMessage> net_;
  ResendSource resend_src_;
  std::vector<Server> servers_;
  std::vector<Client> clients_;
  std::int64_t writer_seq_ = 0;  // single-writer variant's local stamp
  int query_phases_run_ = 0;
  int retransmissions_ = 0;
};

}  // namespace blunt::objects
