// Unit tests for the message-passing substrate: delivery choice, reordering,
// handler execution, broadcast, crash semantics.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::net {
namespace {

struct Msg {
  int tag = 0;
  [[nodiscard]] std::string summary() const {
    return "msg" + std::to_string(tag);
  }
};

TEST(Network, SendEnqueuesDeliverRuns) {
  Network<Msg> net("n", 2, nullptr);
  std::vector<int> got;
  net.set_handler(1, [&got](Pid, Pid, const Msg& m) { got.push_back(m.tag); });
  net.send(0, 1, {7});
  EXPECT_EQ(net.in_transit_count(), 1);
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].to, 1);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(got, std::vector<int>{7});
  EXPECT_EQ(net.in_transit_count(), 0);
}

TEST(Network, AdversaryMayReorder) {
  Network<Msg> net("n", 2, nullptr);
  std::vector<int> got;
  net.set_handler(1, [&got](Pid, Pid, const Msg& m) { got.push_back(m.tag); });
  net.send(0, 1, {1});
  net.send(0, 1, {2});
  net.send(0, 1, {3});
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  ASSERT_EQ(pending.size(), 3u);
  // Deliver in reverse.
  net.deliver(pending[2].msg_id);
  net.deliver(pending[1].msg_id);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(got, (std::vector<int>{3, 2, 1}));
}

TEST(Network, BroadcastIncludesSelf) {
  Network<Msg> net("n", 3, nullptr);
  std::vector<Pid> recipients;
  for (Pid p = 0; p < 3; ++p) {
    net.set_handler(p, [&recipients](Pid to, Pid, const Msg&) {
      recipients.push_back(to);
    });
  }
  net.broadcast(1, {5});
  EXPECT_EQ(net.in_transit_count(), 3);
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  for (const auto& d : pending) net.deliver(d.msg_id);
  EXPECT_EQ(recipients, (std::vector<Pid>{0, 1, 2}));
}

TEST(Network, HandlerMaySendMore) {
  // Ping-pong: p1's handler replies to p0.
  Network<Msg> net("n", 2, nullptr);
  int p0_got = 0;
  net.set_handler(0, [&p0_got](Pid, Pid, const Msg& m) { p0_got = m.tag; });
  net.set_handler(1, [&net](Pid to, Pid from, const Msg& m) {
    net.send(to, from, {m.tag + 1});
  });
  net.send(0, 1, {10});
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(net.in_transit_count(), 1);  // the reply
  pending.clear();
  net.enumerate(pending, true);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(p0_got, 11);
}

TEST(Network, CrashDropsInTransitAndFuture) {
  Network<Msg> net("n", 2, nullptr);
  net.set_handler(1, [](Pid, Pid, const Msg&) { FAIL() << "delivered"; });
  net.send(0, 1, {1});
  net.on_crash(1);
  EXPECT_EQ(net.in_transit_count(), 0);
  net.send(0, 1, {2});  // dropped silently
  EXPECT_EQ(net.in_transit_count(), 0);
}

TEST(Network, CrashedSendersMessagesSurvive) {
  Network<Msg> net("n", 2, nullptr);
  int got = 0;
  net.set_handler(1, [&got](Pid, Pid, const Msg& m) { got = m.tag; });
  net.send(0, 1, {9});
  net.on_crash(0);  // sender crashes; its message is already in flight
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  ASSERT_EQ(pending.size(), 1u);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(got, 9);
}

TEST(Network, CrashedSenderInjectsNothing) {
  // Crash-stop: messages already in flight survive (above), but a crashed
  // process must not put NEW messages on the wire — e.g. a handler or resend
  // firing after the crash.
  Network<Msg> net("n", 2, nullptr);
  net.set_handler(1, [](Pid, Pid, const Msg&) {});
  net.on_crash(0);
  net.send(0, 1, {9});
  EXPECT_EQ(net.in_transit_count(), 0);
  EXPECT_EQ(net.messages_sent(), 1);  // counted as attempted, then dropped
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  EXPECT_TRUE(pending.empty());
}

TEST(Network, CountersTrackTraffic) {
  Network<Msg> net("n", 3, nullptr);
  for (Pid p = 0; p < 3; ++p) net.set_handler(p, [](Pid, Pid, const Msg&) {});
  net.broadcast(0, {1});
  EXPECT_EQ(net.messages_sent(), 3);
  std::vector<sim::PendingDelivery> pending;
  net.enumerate(pending, true);
  net.deliver(pending[0].msg_id);
  EXPECT_EQ(net.messages_delivered(), 1);
}

TEST(Network, WorldIntegrationDeliveriesAreEvents) {
  sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
  Network<Msg> net("n", 2, &w.trace_mutable());
  int got = 0;
  net.set_handler(0, [](Pid, Pid, const Msg&) {});
  net.set_handler(1, [&got](Pid, Pid, const Msg& m) { got = m.tag; });
  w.attach(net);
  w.add_process("sender", [&net](sim::Proc p) -> sim::Task<void> {
    co_await p.yield(sim::StepKind::kSend, "send");
    net.send(p.pid(), 1, {3});
  });
  w.add_process("receiver", [](sim::Proc) -> sim::Task<void> { co_return; });
  sim::FirstEnabledAdversary adv;
  EXPECT_EQ(w.run(adv).status, sim::RunStatus::kCompleted);
  // The send happened but delivery may still be pending once processes are
  // done; drive it manually if needed.
  auto events = w.enabled_events().to_vector();
  for (const auto& e : events) {
    if (e.kind == sim::Event::Kind::kDeliver) w.execute(e);
  }
  EXPECT_EQ(got, 3);
}

TEST(Network, InTransitCountSkipsTombstones) {
  // Deliveries and crash-drops leave tombstones that compaction removes
  // once they outnumber the live messages. The count, the enabled list (the
  // rescan oracle checks it on every scan) and describe_pending must see
  // live messages only, on both sides of a compaction.
  sim::World w(sim::Config{.max_crashes = 1, .verify_enabled_index = true},
               std::make_unique<sim::SeededCoin>(1));
  Network<Msg> net("n", 3, &w.trace_mutable());
  std::vector<int> delivered;
  for (Pid pid = 0; pid < 3; ++pid) {
    net.set_handler(pid, [&delivered](Pid, Pid, const Msg& m) {
      delivered.push_back(m.tag);
    });
  }
  w.attach(net);
  for (Pid pid = 0; pid < 3; ++pid) {
    w.add_process(std::string("p").append(std::to_string(pid)),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  std::set<int> live;  // tags == msg ids: no loss, no duplication
  for (int i = 0; i < 120; ++i) {
    net.send(0, 1 + i % 2, {i});
    live.insert(i);
  }
  ASSERT_EQ(net.in_transit_count(), 120);

  const auto deliver_one = [&](bool newest) {
    std::vector<sim::Event> deliveries;
    for (const sim::Event& e : w.enabled_events()) {
      if (e.kind == sim::Event::Kind::kDeliver) deliveries.push_back(e);
    }
    ASSERT_EQ(deliveries.size(), live.size());
    w.execute(newest ? deliveries.back() : deliveries.front());
    live.erase(delivered.back());
    EXPECT_EQ(net.in_transit_count(), static_cast<int>(live.size()));
  };
  const auto expect_pending_is_live = [&] {
    std::vector<std::string> lines;
    net.describe_pending(lines);
    EXPECT_EQ(lines.size(), live.size());
    for (const int tag : delivered) {
      const std::string id = "n msg" + std::to_string(tag) + " p";
      for (const std::string& line : lines) {
        EXPECT_EQ(line.find(id), std::string::npos) << line;
      }
    }
  };

  // Oldest and newest alternately, so tombstones gather at both ends; the
  // 61st delivery leaves more dead slots than live ones and compacts.
  for (int d = 0; d < 80; ++d) deliver_one(d % 2 == 1);
  expect_pending_is_live();

  // Crashing p2 drops its undelivered messages (the odd tags).
  for (const sim::Event& e : w.enabled_events()) {
    if (e.kind == sim::Event::Kind::kCrash && e.pid == 2) {
      w.execute(e);
      break;
    }
  }
  ASSERT_TRUE(w.crashed(2));
  std::erase_if(live, [](int tag) { return tag % 2 == 1; });
  EXPECT_EQ(net.in_transit_count(), static_cast<int>(live.size()));
  expect_pending_is_live();

  while (!live.empty()) deliver_one(/*newest=*/false);
  EXPECT_EQ(net.in_transit_count(), 0);
  expect_pending_is_live();
}

TEST(Network, DeliversByIdAcrossCompactionsAndCrashDrops) {
  // Deliveries by id, not by enumeration position: after compactions have
  // dropped tombstones (so the stored ids have gaps), after a crash has
  // tombstoned a whole recipient's messages, and always including the
  // oldest id still stored. With no fault layer, ids are 0, 1, 2, ... and
  // each message's tag is its id.
  Network<Msg> net("n", 3, nullptr);
  std::vector<int> got;
  for (Pid pid = 0; pid < 3; ++pid) {
    net.set_handler(pid, [&got](Pid, Pid, const Msg& m) {
      got.push_back(m.tag);
    });
  }
  std::set<int> live;
  int next = 0;
  // Sends `count` messages among the processes in `pids`, so a message to
  // a crashed process is never sent (it would take no id).
  const auto send = [&](int count, std::vector<Pid> pids) {
    for (int i = 0; i < count; ++i, ++next) {
      const Pid pid = pids[static_cast<std::size_t>(next) % pids.size()];
      net.send(pid, pid, {next});
      live.insert(next);
    }
  };
  const auto deliver = [&](int id) {
    net.deliver(id);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.back(), id);
    live.erase(id);
    EXPECT_EQ(net.in_transit_count(), static_cast<int>(live.size()));
  };
  const auto expect_enumerates_live = [&] {
    std::vector<sim::PendingDelivery> pending;
    net.enumerate(pending, true);
    std::vector<int> ids;
    for (const sim::PendingDelivery& d : pending) ids.push_back(d.msg_id);
    EXPECT_EQ(ids, std::vector<int>(live.begin(), live.end()));
  };

  send(60, {0, 1, 2});
  // Every third id from 0 up, and the newest: 21 tombstones against 39 live
  // envelopes, not yet compacted.
  for (int id = 0; id < 60; id += 3) deliver(id);
  deliver(59);
  expect_enumerates_live();
  // The tenth delivery of ids 30-58 leaves more dead envelopes than live
  // ones and compacts: the stored ids now start at 1, with gaps.
  for (int id = 30; id < 59; ++id) {
    if (live.count(id) != 0) deliver(id);
  }
  expect_enumerates_live();
  deliver(*live.begin());  // the oldest stored id, 1
  deliver(*live.begin());
  deliver(*live.rbegin());
  expect_enumerates_live();

  // Newer ids after the gaps, delivered newest first.
  send(40, {0, 1, 2});
  for (int i = 0; i < 10; ++i) deliver(*live.rbegin());
  expect_enumerates_live();

  // p1's messages are dropped; the survivors stay deliverable by id.
  net.on_crash(1);
  std::erase_if(live, [](int id) { return id % 3 == 1; });
  EXPECT_EQ(net.in_transit_count(), static_cast<int>(live.size()));
  expect_enumerates_live();
  while (!live.empty()) {
    deliver(live.size() % 2 == 0 ? *live.begin() : *live.rbegin());
    if (live.size() % 5 == 0) expect_enumerates_live();
  }
  EXPECT_EQ(net.in_transit_count(), 0);
  EXPECT_EQ(net.messages_delivered(), static_cast<int>(got.size()));

  // Ids sent after everything was delivered and compacted.
  send(12, {0, 2});
  deliver(next - 12);
  deliver(next - 1);
  expect_enumerates_live();
}

TEST(NetworkDeathTest, DeliverOfUnknownOrDeliveredIdAborts) {
  Network<Msg> net("n", 2, nullptr);
  net.set_handler(1, [](Pid, Pid, const Msg&) {});
  for (int i = 0; i < 20; ++i) net.send(0, 1, {i});
  net.deliver(4);
  EXPECT_DEATH(net.deliver(4), "deliver of unknown msg 4");
  EXPECT_DEATH(net.deliver(20), "deliver of unknown msg 20");
  EXPECT_DEATH(net.deliver(-1), "deliver of unknown msg -1");
  // Delivering id 10 leaves 11 tombstones against 9 live envelopes and
  // compacts: ids below 11 are no longer stored, and 11 is then a tombstone.
  for (int id = 0; id < 12; ++id) {
    if (id != 4) net.deliver(id);
  }
  EXPECT_EQ(net.in_transit_count(), 8);
  EXPECT_DEATH(net.deliver(0), "deliver of unknown msg 0");
  EXPECT_DEATH(net.deliver(11), "deliver of unknown msg 11");
  net.deliver(12);
}

}  // namespace
}  // namespace blunt::net
