// Tests for the rollback-transformed Herlihy–Wing queue (the Section 7
// "future work" prototype) and the queue sequential specification.
#include "objects/hw_queue.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

TEST(QueueSpec, FifoOrderEnforced) {
  lin::QueueSpec spec;
  test::HistoryBuilder hb("q");
  hb.op(0, "Enq", sim::Value(std::int64_t{1}), sim::Value{}, 0, 1);
  hb.op(0, "Enq", sim::Value(std::int64_t{2}), sim::Value{}, 2, 3);
  hb.op(1, "Deq", {}, sim::Value(std::int64_t{1}), 4, 5);
  hb.op(1, "Deq", {}, sim::Value(std::int64_t{2}), 6, 7);
  EXPECT_TRUE(lin::check_linearizable(hb.build(), spec).linearizable);

  test::HistoryBuilder bad("q");
  bad.op(0, "Enq", sim::Value(std::int64_t{1}), sim::Value{}, 0, 1);
  bad.op(0, "Enq", sim::Value(std::int64_t{2}), sim::Value{}, 2, 3);
  bad.op(1, "Deq", {}, sim::Value(std::int64_t{2}), 4, 5);  // jumps the line
  bad.op(1, "Deq", {}, sim::Value(std::int64_t{1}), 6, 7);
  EXPECT_FALSE(lin::check_linearizable(bad.build(), spec).linearizable);
}

TEST(QueueSpec, ConcurrentEnqueuesAdmitEitherOrder) {
  lin::QueueSpec spec;
  test::HistoryBuilder hb("q");
  hb.op(0, "Enq", sim::Value(std::int64_t{1}), sim::Value{}, 0, 10);
  hb.op(1, "Enq", sim::Value(std::int64_t{2}), sim::Value{}, 1, 9);
  hb.op(2, "Deq", {}, sim::Value(std::int64_t{2}), 20, 21);
  hb.op(2, "Deq", {}, sim::Value(std::int64_t{1}), 22, 23);
  EXPECT_TRUE(lin::check_linearizable(hb.build(), spec).linearizable);
}

TEST(HwQueue, FifoSingleProcess) {
  auto w = test::make_world();
  HwQueue q("Q", *w, {.capacity = 8});
  std::vector<std::int64_t> got;
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    co_await q.enqueue(p, 10);
    co_await q.enqueue(p, 20);
    co_await q.enqueue(p, 30);
    got.push_back(co_await q.dequeue(p));
    got.push_back(co_await q.dequeue(p));
    got.push_back(co_await q.dequeue(p));
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(q.tombstones(), 0);  // k = 1: no rollback
}

TEST(HwQueue, RollbackTombstonesUnusedReservations) {
  for (const int k : {2, 3}) {
    auto w = test::make_world(static_cast<std::uint64_t>(k));
    HwQueue q("Q", *w, {.capacity = 32, .preamble_iterations = k});
    std::vector<std::int64_t> got;
    w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
      co_await q.enqueue(p, 1);
      co_await q.enqueue(p, 2);
      got.push_back(co_await q.dequeue(p));
      got.push_back(co_await q.dequeue(p));
    });
    sim::FirstEnabledAdversary adv;
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2})) << "k=" << k;
    EXPECT_EQ(q.tombstones(), 2 * (k - 1)) << "k=" << k;
    EXPECT_EQ(q.slots_used(), 2 * k) << "k=" << k;
    // One object random step per enqueue when k > 1.
    EXPECT_EQ(w->random_draws(), 2);
  }
}

TEST(HwQueue, CompletedEnqueueOrderIsPreserved) {
  // Enq(1) completes before Enq(2) starts (cross-process, synced by flag):
  // dequeues must deliver 1 before 2 for every k and seed.
  for (const int k : {1, 2}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      auto w = test::make_world(seed);
      HwQueue q("Q", *w, {.capacity = 32, .preamble_iterations = k});
      bool first_done = false;
      std::vector<std::int64_t> got;
      w->add_process("e1", [&](sim::Proc p) -> sim::Task<void> {
        co_await q.enqueue(p, 1);
        first_done = true;
        p.world().wake_hint(1);
      });
      w->add_process("e2", [&](sim::Proc p) -> sim::Task<void> {
        co_await p.wait_until([&first_done] { return first_done; }, "sync");
        co_await q.enqueue(p, 2);
      });
      w->add_process("d", [&](sim::Proc p) -> sim::Task<void> {
        got.push_back(co_await q.dequeue(p));
        got.push_back(co_await q.dequeue(p));
      });
      sim::UniformAdversary adv(seed * 3 + 7);
      ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
      ASSERT_EQ(got.size(), 2u);
      // 2 may never be dequeued before 1 once Enq(1) completed first.
      if (got[0] == 2) {
        ADD_FAILURE() << "k=" << k << " seed=" << seed
                      << ": FIFO violated: " << got[0] << "," << got[1];
      }
    }
  }
}

class HwQueueSoak : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HwQueueSoak, HistoriesLinearizable) {
  const auto [k, seed] = GetParam();
  auto w = test::make_world(static_cast<std::uint64_t>(seed));
  HwQueue q("Q", *w, {.capacity = 64, .preamble_iterations = k});
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("e" + std::to_string(pid),
                   [&q, pid](sim::Proc p) -> sim::Task<void> {
                     co_await q.enqueue(p, pid * 10 + 1);
                     co_await q.enqueue(p, pid * 10 + 2);
                   });
  }
  w->add_process("d", [&q](sim::Proc p) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) (void)co_await q.dequeue(p);
  });
  sim::UniformAdversary adv(static_cast<std::uint64_t>(seed) * 41 + 11);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const lin::History h = lin::History::from_world(*w);
  lin::QueueSpec spec;
  EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
      << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeeds, HwQueueSoak,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Range(0, 25)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

using HwQueueDeathTest = ::testing::Test;

TEST(HwQueueDeathTest, OverflowAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto body = [] {
    auto w = test::make_world();
    HwQueue q("Q", *w, {.capacity = 1, .preamble_iterations = 2});
    w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
      co_await q.enqueue(p, 1);  // needs 2 slots, capacity 1
    });
    sim::FirstEnabledAdversary adv;
    (void)w->run(adv);
  };
  EXPECT_DEATH(body(), "overflow");
}

}  // namespace
}  // namespace blunt::objects
