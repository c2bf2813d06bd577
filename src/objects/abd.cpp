#include "objects/abd.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace blunt::objects {

std::string AbdMessage::summary() const {
  std::ostringstream os;
  switch (type) {
    case Type::kQuery:
      os << "query sn=" << sn;
      break;
    case Type::kReply:
      os << "reply sn=" << sn << " val=" << sim::to_string(val) << " ts="
         << ts;
      break;
    case Type::kUpdate:
      os << "update sn=" << sn << " val=" << sim::to_string(val) << " ts="
         << ts;
      break;
    case Type::kAck:
      os << "ack sn=" << sn;
      break;
  }
  return os.str();
}

AbdRegister::AbdRegister(std::string name, sim::World& w, Options opts)
    : name_(std::move(name)),
      label_query_bcast_(name_ + ".query-bcast"),
      label_query_quorum_(name_ + ".query-quorum"),
      label_update_bcast_(name_ + ".update-bcast"),
      label_update_quorum_(name_ + ".update-quorum"),
      label_choose_iteration_(name_ + ".choose-iteration"),
      world_(w),
      opts_(opts),
      object_id_(w.register_object(name_)),
      quorum_(opts.bug == AbdBug::kSubMajorityQuorum
                  ? std::max(opts.num_processes / 2, 1)
                  : opts.num_processes / 2 + 1),
      words_per_phase_((static_cast<std::size_t>(opts.num_processes) + 63) /
                       64),
      net_(name_, opts.num_processes, &w.trace_mutable(), w.metrics()),
      resend_src_(this),
      servers_(static_cast<std::size_t>(opts.num_processes)),
      clients_(static_cast<std::size_t>(opts.num_processes)) {
  BLUNT_ASSERT(opts_.num_processes >= 1, "ABD needs processes");
  BLUNT_ASSERT(opts_.preamble_iterations >= 1, "k must be >= 1");
  BLUNT_ASSERT(opts_.max_retransmits >= 0, "negative retransmit bound");
  prof_ = w.profiler();
  if (obs::MetricsRegistry* m = w.metrics()) {
    quorum_round_trips_ = m->counter(obs::kQuorumRoundTrips);
    preamble_executed_ = m->counter(obs::kPreambleExecuted);
    preamble_kept_ = m->counter(obs::kPreambleKept);
    if (opts_.max_retransmits > 0) {
      retransmission_counter_ = m->counter(obs::kFaultRetransmissions);
    }
  }
  for (auto& s : servers_) s.val = opts_.initial;
  for (Pid pid = 0; pid < opts_.num_processes; ++pid) {
    net_.set_handler(pid, [this](Pid to, Pid from, const AbdMessage& m) {
      handle(to, from, m);
    });
  }
  w.attach(net_);
  // Attached only when enabled so the source ids (and hence the canonical
  // event order) of retransmission-free configurations are unchanged.
  if (opts_.max_retransmits > 0) w.attach(resend_src_);
}

lin::PreambleMapping AbdRegister::preamble_mapping() const {
  lin::PreambleMapping pi;
  pi.set(name_, "Read", kReadPreambleLine);
  if (opts_.variant == AbdVariant::kMultiWriter) {
    pi.set(name_, "Write", kWritePreambleLine);
  }
  return pi;
}

std::pair<sim::Value, Timestamp> AbdRegister::replica(Pid pid) const {
  BLUNT_ASSERT(pid >= 0 && pid < opts_.num_processes, "bad pid " << pid);
  const Server& s = servers_[static_cast<std::size_t>(pid)];
  return {s.val, s.ts};
}

void AbdRegister::handle(Pid to, Pid from, const AbdMessage& m) {
  Server& srv = servers_[static_cast<std::size_t>(to)];
  Client& cli = clients_[static_cast<std::size_t>(to)];
  switch (m.type) {
    case AbdMessage::Type::kQuery:
      // Lines 11–12: answer with the replica's current value and timestamp.
      // Re-answering a retransmitted query is harmless: the reply is keyed
      // by (sn, responder) on the client, so it cannot double-count.
      net_.send(to, from,
                {AbdMessage::Type::kReply, m.sn, srv.val, srv.ts});
      break;
    case AbdMessage::Type::kReply: {
      // Deduped by the responder bitset: a duplicated or re-elicited reply
      // is dropped before it can double-count or perturb the running max
      // (first reply per responder wins). A first reply to a phase the
      // client has finished counts toward nothing, but wakes the client
      // like any other.
      if (prof_ != nullptr) prof_->count(obs::ProfCounter::kQuorumTouches);
      if (!first_response(cli, m.sn, from)) break;
      if (m.sn == cli.next_sn - 1) {
        ++cli.count;
        if (!cli.any || m.ts > cli.best_ts) {
          cli.any = true;
          cli.best_val = m.val;
          cli.best_ts = m.ts;
        }
        // Reaching the quorum hides the phase's resend token.
        if (static_cast<int>(cli.count) == quorum_) resend_src_.resync();
      }
      world_.wake_hint(to);
      break;
    }
    case AbdMessage::Type::kUpdate:
      // Lines 18–20: adopt if newer, always ack. Timestamps are monotone, so
      // re-applying a retransmitted update is a no-op.
      if (m.ts > srv.ts) {
        srv.val = m.val;
        srv.ts = m.ts;
      }
      net_.send(to, from, {AbdMessage::Type::kAck, m.sn});
      break;
    case AbdMessage::Type::kAck: {
      // The same bitset dedupe: duplicated acks cannot fake a quorum.
      if (prof_ != nullptr) prof_->count(obs::ProfCounter::kQuorumTouches);
      if (!first_response(cli, m.sn, from)) break;
      if (m.sn == cli.next_sn - 1) {
        ++cli.count;
        if (static_cast<int>(cli.count) == quorum_) resend_src_.resync();
      }
      world_.wake_hint(to);
      break;
    }
  }
}

bool AbdRegister::phase_satisfied(Pid client, int sn,
                                  AbdMessage::Type type) const {
  // O(1): the current phase keeps a distinct-responder count, so the quorum
  // test is one compare regardless of n; a finished phase had its quorum.
  // Polled at park and on wake_hint, not on every enabled scan.
  const obs::ScopedPhase prof_scope(prof_, obs::Phase::kQuorum);
  if (prof_ != nullptr) prof_->count(obs::ProfCounter::kQuorumTouches);
  (void)type;  // query and update phases share the sn counter
  const Client& c = clients_[static_cast<std::size_t>(client)];
  if (sn < c.next_sn - 1) return true;
  return sn == c.next_sn - 1 && static_cast<int>(c.count) >= quorum_;
}

int AbdRegister::begin_phase(Client& cli) {
  if (cli.responders.empty()) {
    // Room for the phases of a few operations (k query phases and one
    // update phase each), so a short program never regrows it.
    constexpr std::size_t kOpsReserved = 4;
    cli.responders.reserve(
        kOpsReserved *
        (static_cast<std::size_t>(opts_.preamble_iterations) + 1) *
        words_per_phase_);
  }
  cli.responders.resize(cli.responders.size() + words_per_phase_, 0);
  cli.count = 0;
  cli.any = false;
  return cli.next_sn++;
}

bool AbdRegister::first_response(Client& cli, int sn, Pid from) {
  BLUNT_ASSERT(sn >= 0 && sn < cli.next_sn, "reply for unknown phase " << sn);
  std::uint64_t& word =
      cli.responders[static_cast<std::size_t>(sn) * words_per_phase_ +
                     (static_cast<std::size_t>(from) >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (from & 63);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

// -- ResendSource ------------------------------------------------------------

void AbdRegister::ResendSource::arm(Pid client, int sn, AbdMessage msg,
                                    int retries) {
  if (retries <= 0) return;
  tokens_.emplace(next_token_++, Token{client, sn, std::move(msg), retries});
  resync();
}

void AbdRegister::ResendSource::disarm(Pid client, int sn) {
  for (auto it = tokens_.begin(); it != tokens_.end();) {
    if (it->second.client == client && it->second.sn == sn) {
      it = tokens_.erase(it);
      resync();
    } else {
      ++it;
    }
  }
}

void AbdRegister::ResendSource::enumerate(
    std::vector<sim::PendingDelivery>& out, bool want_summaries) const {
  for (const auto& [id, t] : tokens_) {
    // A satisfied phase no longer offers its resend — the rebroadcast would
    // be pure noise, and hiding it keeps fault-free schedules identical.
    if (reg_->phase_satisfied(t.client, t.sn, t.msg.type)) continue;
    out.push_back({id, t.client,
                   want_summaries
                       ? reg_->name_ + " resend " + t.msg.summary() + " by p" +
                             std::to_string(t.client) + " (" +
                             std::to_string(t.retries_left) + " left)"
                       : std::string()});
  }
}

void AbdRegister::ResendSource::deliver(int msg_id) {
  auto it = tokens_.find(msg_id);
  BLUNT_ASSERT(it != tokens_.end(), "resend of unknown token " << msg_id);
  Token& t = it->second;
  --t.retries_left;
  ++reg_->retransmissions_;
  if (reg_->retransmission_counter_ != nullptr) {
    reg_->retransmission_counter_->inc();
  }
  sim::Trace& trace = reg_->world_.trace_mutable();
  if (trace.recording()) {
    trace.append({.pid = t.client,
                  .kind = sim::StepKind::kFault,
                  .what = reg_->name_ + " resend " + t.msg.summary(),
                  .inv = -1,
                  .value = {}});
  } else {
    trace.skip();
  }
  const Pid client = t.client;
  const AbdMessage msg = t.msg;
  if (t.retries_left <= 0) tokens_.erase(it);
  resync();  // one retry fewer (or the token gone)
  reg_->net_.broadcast(client, msg);
}

void AbdRegister::ResendSource::on_crash(Pid pid) {
  for (auto it = tokens_.begin(); it != tokens_.end();) {
    if (it->second.client == pid) {
      it = tokens_.erase(it);
      resync();
    } else {
      ++it;
    }
  }
}

void AbdRegister::ResendSource::describe_pending(
    std::vector<std::string>& out) const {
  for (const auto& [id, t] : tokens_) {
    const bool satisfied = reg_->phase_satisfied(t.client, t.sn, t.msg.type);
    out.push_back(reg_->name_ + " resend-token" + std::to_string(id) + " p" +
                  std::to_string(t.client) + " " + t.msg.summary() + " (" +
                  std::to_string(t.retries_left) + " left)" +
                  (satisfied ? " [phase satisfied]" : " [armed]"));
  }
}

// -- Phases ------------------------------------------------------------------

sim::Task<std::pair<sim::Value, Timestamp>> AbdRegister::query_phase(
    sim::Proc p, InvocationId inv) {
  Client& cli = clients_[static_cast<std::size_t>(p.pid())];
  const int sn = begin_phase(cli);
  ++query_phases_run_;
  co_await p.yield(sim::StepKind::kSend, label_query_bcast_, inv);
  const AbdMessage msg{AbdMessage::Type::kQuery, sn};
  net_.broadcast(p.pid(), msg);
  if (opts_.max_retransmits > 0) {
    resend_src_.arm(p.pid(), sn, msg, opts_.max_retransmits);
  }
  const Pid pid = p.pid();
  // The quorum predicate is monotone (responder counts only grow), and
  // every kReply arrival calls World::wake_hint — so the scheduler never
  // re-polls it on an enabled scan.
  co_await p.wait_until(
      [this, pid, sn] {
        return phase_satisfied(pid, sn, AbdMessage::Type::kQuery);
      },
      label_query_quorum_, inv);
  resend_src_.disarm(pid, sn);
  if (quorum_round_trips_ != nullptr) quorum_round_trips_->inc();
  // Line 9: pair in reply with the largest timestamp, over the replies
  // received by the time this step is scheduled — maintained as a running
  // max on arrival, so reading it off the client is O(1).
  BLUNT_ASSERT(cli.any, "query quorum with no reply recorded");
  co_return std::pair<sim::Value, Timestamp>{cli.best_val, cli.best_ts};
}

sim::Task<void> AbdRegister::update_phase(sim::Proc p, InvocationId inv,
                                          sim::Value v, Timestamp u) {
  Client& cli = clients_[static_cast<std::size_t>(p.pid())];
  const int sn = begin_phase(cli);
  co_await p.yield(sim::StepKind::kSend, label_update_bcast_, inv);
  const AbdMessage msg{AbdMessage::Type::kUpdate, sn, std::move(v), u};
  net_.broadcast(p.pid(), msg);
  if (opts_.max_retransmits > 0) {
    resend_src_.arm(p.pid(), sn, msg, opts_.max_retransmits);
  }
  const Pid pid = p.pid();
  co_await p.wait_until(
      [this, pid, sn] {
        return phase_satisfied(pid, sn, AbdMessage::Type::kUpdate);
      },
      label_update_quorum_, inv);
  resend_src_.disarm(pid, sn);
  if (quorum_round_trips_ != nullptr) quorum_round_trips_->inc();
}

sim::Task<sim::Value> AbdRegister::read(sim::Proc p) {
  const InvocationId inv =
      world_.begin_invocation(p.pid(), object_id_, "Read", {});
  const int k = opts_.preamble_iterations;
  std::vector<std::pair<sim::Value, Timestamp>> results;
  results.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    results.push_back(co_await query_phase(p, inv));
  }
  // Algorithm 4: j := random([1..k]); original ABD (k = 1) stays
  // deterministic.
  int j = 0;
  if (k > 1) j = co_await p.random(k, label_choose_iteration_, inv);
  if (preamble_executed_ != nullptr) {
    preamble_executed_->inc(k);  // k query phases ran; one result survives —
    preamble_kept_->inc();       // the direct cost of the O^k transformation
  }
  auto [v, u] = results[static_cast<std::size_t>(j)];
  world_.mark_line(inv, kReadPreambleLine);
  co_await update_phase(p, inv, v, u);  // line 23: write-back
  world_.end_invocation(inv, v);
  co_return v;
}

sim::Task<void> AbdRegister::write(sim::Proc p, sim::Value v) {
  const InvocationId inv =
      world_.begin_invocation(p.pid(), object_id_, "Write", v);
  if (opts_.variant == AbdVariant::kSingleWriter) {
    BLUNT_ASSERT(p.pid() == opts_.single_writer,
                 "p" << p.pid() << " wrote single-writer register " << name_);
    // Original ABD [3]: no query phase; stamp from the local counter. The
    // Write preamble is empty (trivially effect-free), so there is nothing
    // to iterate.
    const Timestamp u{++writer_seq_, p.pid()};
    world_.mark_line(inv, kWritePreambleLine);
    co_await update_phase(p, inv, std::move(v), u);
    world_.end_invocation(inv, {});
    co_return;
  }
  const int k = opts_.preamble_iterations;
  std::vector<Timestamp> stamps;
  stamps.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    // Line 26: only the integer part of the timestamp is needed.
    stamps.push_back((co_await query_phase(p, inv)).second);
  }
  int j = 0;
  if (k > 1) j = co_await p.random(k, label_choose_iteration_, inv);
  if (preamble_executed_ != nullptr) {
    preamble_executed_->inc(k);
    preamble_kept_->inc();
  }
  const std::int64_t t = stamps[static_cast<std::size_t>(j)].number;
  world_.mark_line(inv, kWritePreambleLine);
  // Line 27: new timestamp (t + 1, i).
  co_await update_phase(p, inv, std::move(v), Timestamp{t + 1, p.pid()});
  world_.end_invocation(inv, {});
}

}  // namespace blunt::objects
