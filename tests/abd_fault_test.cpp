// ABD under injected faults: partition hold/heal, idempotent quorum
// bookkeeping under duplication, and bounded retransmission-on-loss — every
// completed history checked linearizable.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adversary/scripted.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "obs/prof.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::objects {
namespace {

/// `prefix` followed by `pid`, as in "p1". Appended rather than written
/// `"p" + std::to_string(pid)`, on which GCC 12 at -O3 reports a false
/// -Wrestrict overlap.
std::string named(const char* prefix, Pid pid) {
  std::string name = prefix;
  name += std::to_string(pid);
  return name;
}

struct Rig {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<AbdRegister> reg;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// World + ABD register + injector; p0 writes 7 then reads, p1/p2 idle
/// (their replicas answer via handlers regardless).
Rig make_rig(const fault::FaultPlan& plan, int max_retransmits,
             std::uint64_t coin_seed = 1) {
  Rig rig;
  rig.world = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size())},
      std::make_unique<sim::SeededCoin>(coin_seed));
  rig.reg = std::make_unique<AbdRegister>(
      "R", *rig.world,
      AbdRegister::Options{.num_processes = 3,
                           .max_retransmits = max_retransmits});
  rig.injector = std::make_unique<fault::FaultInjector>(plan, *rig.world);
  rig.reg->set_fault_layer(rig.injector.get());
  AbdRegister& reg = *rig.reg;
  rig.world->add_process("p0", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{7}));
    const sim::Value v = co_await reg.read(p);
    EXPECT_EQ(v, sim::Value(std::int64_t{7}));
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    rig.world->add_process(named("p", pid),
                           [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  return rig;
}

bool lin_ok(const sim::World& w) {
  lin::RegisterSpec spec;
  return lin::check_linearizable(lin::History::from_world(w), spec)
      .linearizable;
}

TEST(AbdFault, CompletesAfterPartitionHeals) {
  // p0 is cut off from the majority {p1, p2}; its quorum of 2 is unreachable
  // until the heal, after which the held messages deliver and the operation
  // finishes. No retransmission needed: partitions delay, they don't lose.
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.partitions.push_back({/*side_mask=*/0b001, /*open=*/0, /*heal=*/80});
  Rig rig = make_rig(plan, /*max_retransmits=*/0);
  sim::UniformAdversary adv(5);
  EXPECT_EQ(rig.world->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(rig.injector->partitions_opened(), 1);
  EXPECT_EQ(rig.injector->partitions_healed(), 1);
  EXPECT_TRUE(lin_ok(*rig.world));
}

TEST(AbdFault, MajoritySideMakesProgressWhilePartitioned) {
  // The partition isolates p2 only; the client holds a majority {p0, p1} on
  // its side, so its operations complete without waiting for the heal.
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.partitions.push_back(
      {/*side_mask=*/0b100, /*open=*/0, /*heal=*/100000});
  Rig rig = make_rig(plan, /*max_retransmits=*/0);
  sim::UniformAdversary adv(6);
  EXPECT_EQ(rig.world->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(lin_ok(*rig.world));
}

/// Duplicates every single message — the adversarial extreme for the
/// idempotence argument.
class DuplicateEverything final : public sim::FaultLayer {
 public:
  sim::SendFate on_send(const std::string&, Pid, Pid) override {
    return {.lose = false, .copies = 2};
  }
  [[nodiscard]] bool channel_blocked(Pid, Pid) const override {
    return false;
  }
  bool on_step(sim::World&) override { return false; }
  [[nodiscard]] bool tick_pending(const sim::World&) const override {
    return false;
  }
};

TEST(AbdFault, DuplicatedRepliesCannotFakeAQuorum) {
  // The sharp idempotence regression: crash p1 and p2 immediately, duplicate
  // every message. Only server p0 is alive, so the client can collect ONE
  // distinct reply — a quorum of 2 must stay unreachable and the run must
  // deadlock. (With count-based bookkeeping the duplicated self-reply/ack
  // counted twice and the phase completed on a fake quorum.)
  sim::World w(sim::Config{.max_steps = 5000, .max_crashes = 2},
               std::make_unique<sim::SeededCoin>(1));
  AbdRegister reg("R", w, {.num_processes = 3});
  DuplicateEverything dup;
  reg.set_fault_layer(&dup);
  w.add_process("p0", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{7}));
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    w.add_process(named("p", pid),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  adversary::ScriptedAdversary adv;
  adv.step("kill p1", adversary::crash(1));
  adv.step("kill p2", adversary::crash(2));
  const sim::RunResult res = w.run(adv);
  EXPECT_EQ(res.status, sim::RunStatus::kDeadlock);
  // Deadlock diagnostics name the starved wait.
  EXPECT_NE(res.deadlock_detail.find("query-quorum"), std::string::npos);
}

/// Executes the one enabled event `m` picks first.
void take(sim::World& w, const adversary::Matcher& m, const char* what) {
  for (const sim::Event& e : w.enabled_events()) {
    if (m(w, e)) {
      w.execute(e);
      return;
    }
  }
  FAIL() << "no enabled event matches " << what;
}

/// ABD quorum bookkeeping touches so far (handler probes and predicate
/// polls).
std::int64_t quorum_touches(const sim::World& w) {
  return w.profiler()->snapshot().counter(obs::ProfCounter::kQuorumTouches);
}

TEST(AbdFault, DuplicatesToASatisfiedPhaseNeitherCountNorWake) {
  // p0 writes then reads with every message sent twice. Each probe below
  // delivers a reply or ack to a phase p0 has already finished while p0 is
  // blocked on its next phase. Every delivery is one handler touch; a reply
  // from a responder new to that old phase also wakes p0, whose predicate
  // poll is the second touch; a duplicate is dropped before it can wake.
  // Then p1 and p2 crash: p0's own answer is one short of a quorum, so the
  // late replies and acks must not have counted toward the current phase.
  sim::World w(sim::Config{.max_crashes = 2, .profile = true},
               std::make_unique<sim::SeededCoin>(1));
  AbdRegister reg("R", w, {.num_processes = 3});
  DuplicateEverything dup;
  reg.set_fault_layer(&dup);
  w.add_process("p0", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{7}));
    (void)co_await reg.read(p);
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    w.add_process(named("p", pid),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  using adversary::deliver;
  using adversary::resume;
  // A delivery to p0 of `what` sent by `sender`.
  const auto from = [](const char* what, Pid sender) {
    return deliver(0, std::vector<std::string>{
                          what, named("from p", sender)});
  };
  const auto touches_of = [&w](const adversary::Matcher& m, const char* what) {
    const std::int64_t before = quorum_touches(w);
    take(w, m, what);
    return quorum_touches(w) - before;
  };
  // Query phase sn=0 reaches its quorum on p0's and p1's replies.
  take(w, resume(0, "start"), "p0 start");
  take(w, resume(0, "query-bcast"), "query broadcast");
  for (Pid to = 0; to < 3; ++to) {
    take(w, deliver(to, "query sn=0"), "query sn=0");
  }
  take(w, from("reply sn=0", 0), "p0's reply");
  take(w, from("reply sn=0", 1), "p1's reply");
  take(w, resume(0, "query-quorum"), "query quorum");
  take(w, resume(0, "update-bcast"), "update broadcast");
  // Blocked on update phase sn=1 with no ack yet.
  EXPECT_EQ(touches_of(from("reply sn=0", 1), "p1 dup"), 1);
  EXPECT_EQ(touches_of(from("reply sn=0", 2), "p2 reply"), 2);
  EXPECT_EQ(touches_of(from("reply sn=0", 2), "p2 dup"), 1);
  // Update phase sn=1 reaches its quorum on p0's and p1's acks.
  for (Pid to = 0; to < 3; ++to) {
    take(w, deliver(to, "update sn=1"), "update sn=1");
  }
  take(w, from("ack sn=1", 0), "p0's ack");
  take(w, from("ack sn=1", 1), "p1's ack");
  take(w, resume(0, "update-quorum"), "update quorum");
  take(w, resume(0, "query-bcast"), "read's query broadcast");
  // Blocked on the read's query phase sn=2 with no reply yet.
  EXPECT_EQ(touches_of(from("ack sn=1", 1), "p1 dup"), 1);
  EXPECT_EQ(touches_of(from("ack sn=1", 2), "p2 ack"), 2);
  EXPECT_EQ(touches_of(from("ack sn=1", 2), "p2 dup"), 1);
  take(w, adversary::crash(1), "crash p1");
  take(w, adversary::crash(2), "crash p2");
  sim::UniformAdversary rest(3);
  const sim::RunResult res = w.run(rest);
  EXPECT_EQ(res.status, sim::RunStatus::kDeadlock);
  EXPECT_NE(res.deadlock_detail.find("query-quorum"), std::string::npos);
}

TEST(AbdFault, RetransmissionRecoversFromBoundedLoss) {
  // Lose the first two sends on every channel (permille 1000, budget 2).
  // Without retransmission the very first broadcast evaporates and the run
  // deadlocks; with resend events armed, the adversary can always push an
  // operation through — and the history stays linearizable, duplication of
  // effects being absorbed by tag-idempotent bookkeeping.
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.loss_permille = 1000;
  plan.loss_budget_per_channel = 2;

  {
    Rig rig = make_rig(plan, /*max_retransmits=*/0);
    sim::UniformAdversary adv(7);
    EXPECT_EQ(rig.world->run(adv).status, sim::RunStatus::kDeadlock);
  }
  {
    Rig rig = make_rig(plan, /*max_retransmits=*/6);
    sim::UniformAdversary adv(7);
    EXPECT_EQ(rig.world->run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_GT(rig.reg->retransmissions(), 0);
    EXPECT_GT(rig.reg->messages_sent(), 0);
    EXPECT_TRUE(lin_ok(*rig.world));
  }
}

TEST(AbdFault, ResendEventsAbsentWhenDisabled) {
  // max_retransmits = 0 must leave the event menu byte-identical to the
  // pre-fault-subsystem world: no resend source, no resend events.
  sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
  AbdRegister reg("R", w, {.num_processes = 3});
  w.add_process("p0", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    w.add_process(named("p", pid),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  sim::FirstEnabledAdversary adv;
  EXPECT_EQ(w.run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(w.trace().to_string().find("resend"), std::string::npos);
}

TEST(AbdFault, RetransmitWithoutFaultsStaysLinearizable) {
  // Retransmission enabled and actually exercised on faithful channels: the
  // resend rebroadcasts are pure duplicates, which idempotence must absorb.
  // A first-enabled adversary never picks resends (they enumerate after the
  // original deliveries), so drive with a uniform one over several seeds.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(seed));
    AbdRegister reg("R", w, {.num_processes = 3, .max_retransmits = 3});
    for (Pid pid = 0; pid < 3; ++pid) {
      w.add_process(named("p", pid),
                    [&reg, pid](sim::Proc p) -> sim::Task<void> {
                      co_await reg.write(p, sim::Value(std::int64_t{pid}));
                      (void)co_await reg.read(p);
                    });
    }
    sim::UniformAdversary adv(seed * 31 + 17);
    ASSERT_EQ(w.run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_TRUE(lin_ok(w));
  }
}

TEST(AbdFault, SubMajorityQuorumBugIsCatchable) {
  // The planted bug used to validate the chaos harness: with quorum
  // floor(n/2) = 1, some schedule lets a read miss a completed write. Verify
  // at least one seed in a small sweep produces a non-linearizable history
  // (and that the correct quorum never does, over the same seeds).
  // One writer, two double-readers: a sub-majority quorum lets the write
  // "complete" against the writer's own replica only, so a later read off a
  // stale replica returns the initial value after the write returned — a
  // real-time violation. (A read-own-write workload would mask the bug:
  // each process's replica always holds its own completed write.)
  auto run_one = [](std::uint64_t seed, AbdBug bug) {
    sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(seed));
    AbdRegister reg("R", w, {.num_processes = 3, .bug = bug});
    w.add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, sim::Value(std::int64_t{7}));
    });
    for (Pid pid = 1; pid < 3; ++pid) {
      w.add_process(named("r", pid),
                    [&reg](sim::Proc p) -> sim::Task<void> {
                      (void)co_await reg.read(p);
                      (void)co_await reg.read(p);
                    });
    }
    sim::UniformAdversary adv(seed * 13 + 1);
    if (w.run(adv).status != sim::RunStatus::kCompleted) return true;
    lin::RegisterSpec spec;
    return lin::check_linearizable(lin::History::from_world(w), spec)
        .linearizable;
  };
  bool bug_caught = false;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    ASSERT_TRUE(run_one(seed, AbdBug::kNone)) << "correct ABD violated lin";
    if (!run_one(seed, AbdBug::kSubMajorityQuorum)) bug_caught = true;
  }
  EXPECT_TRUE(bug_caught);
}

}  // namespace
}  // namespace blunt::objects
