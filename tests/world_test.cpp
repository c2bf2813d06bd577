// Unit tests for the simulation kernel: scheduling, determinism, waits,
// randomness, crashes, traces, and invocation bookkeeping.
#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/adversaries.hpp"
#include "sim/coin.hpp"

namespace blunt::sim {
namespace {

std::unique_ptr<World> make_world(int max_steps = 10000, int max_crashes = 0,
                                  std::uint64_t seed = 1) {
  return std::make_unique<World>(Config{max_steps, max_crashes},
                                 std::make_unique<SeededCoin>(seed));
}

TEST(World, SingleProcessRunsToCompletion) {
  auto w = make_world();
  int hits = 0;
  w->add_process("p", [&hits](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "a");
    ++hits;
    co_await p.yield(StepKind::kLocal, "b");
    ++hits;
  });
  FirstEnabledAdversary adv;
  const RunResult r = w->run(adv);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(w->finished());
}

TEST(World, AdversaryControlsInterleaving) {
  // Two processes each append their id twice; a replay adversary dictates
  // the exact interleaving.
  auto run_with = [](std::vector<std::size_t> script) {
    auto w = make_world();
    std::vector<int> order;
    for (int id = 0; id < 2; ++id) {
      w->add_process(std::string("p").append(std::to_string(id)),
                     [&order, id](Proc p) -> Task<void> {
                       co_await p.yield(StepKind::kLocal, "x");
                       order.push_back(id);
                       co_await p.yield(StepKind::kLocal, "y");
                       order.push_back(id);
                     });
    }
    ReplayAdversary adv(std::move(script));
    EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
    return order;
  };
  // Enabled events are [p0, p1] while both live. Note each process needs 3
  // resumes (start + 2 yields).
  EXPECT_EQ(run_with({0, 0, 0, 0, 0, 0}), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(run_with({1, 1, 1, 0, 0, 0}), (std::vector<int>{1, 1, 0, 0}));
  // After p0's third resume it is done, so the last resume of p1 is index 0.
  EXPECT_EQ(run_with({0, 1, 0, 1, 0, 0}), (std::vector<int>{0, 1, 0, 1}));
}

TEST(World, DeterministicGivenChoicesAndCoins) {
  auto run_once = [] {
    auto w = make_world(10000, 0, 99);
    std::vector<int> log;
    w->add_process("p", [&log](Proc p) -> Task<void> {
      for (int i = 0; i < 8; ++i) {
        log.push_back(co_await p.random(6, "die"));
      }
    });
    FirstEnabledAdversary adv;
    EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(World, ScriptedCoinDrivesRandomSteps) {
  auto w = std::make_unique<World>(
      Config{}, std::make_unique<ScriptedCoin>(std::vector<int>{2, 0, 1}));
  std::vector<int> got;
  w->add_process("p", [&got](Proc p) -> Task<void> {
    got.push_back(co_await p.random(3, "a"));
    got.push_back(co_await p.random(3, "b"));
    got.push_back(co_await p.random(2, "c"));
  });
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
  EXPECT_EQ(got, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(w->random_draws(), 3);
}

TEST(World, WaitUntilBlocksUntilPredicateHolds) {
  auto w = make_world();
  bool ready = false;
  std::vector<int> order;
  w->add_process("waiter", [&](Proc p) -> Task<void> {
    co_await p.wait_until([&ready] { return ready; }, "ready?");
    order.push_back(0);
  });
  w->add_process("setter", [&](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "set");
    ready = true;
    p.world().wake_hint(0);
    order.push_back(1);
  });
  // FirstEnabled prefers the waiter, but it is blocked until `ready`.
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(World, DeadlockDetected) {
  auto w = make_world();
  w->add_process("stuck", [](Proc p) -> Task<void> {
    co_await p.wait_until([] { return false; }, "never");
  });
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kDeadlock);
}

TEST(World, DeadlockDiagnosticsNameTheBlockedWait) {
  auto w = make_world();
  w->add_process("stuck", [](Proc p) -> Task<void> {
    co_await p.wait_until([] { return false; }, "never-satisfied");
  });
  w->add_process("fine", [](Proc) -> Task<void> { co_return; });
  FirstEnabledAdversary adv;
  const RunResult res = w->run(adv);
  ASSERT_EQ(res.status, RunStatus::kDeadlock);
  // The detail names the blocked process, its wait label, and the predicate
  // state; it also lands in the trace for exported artifacts.
  EXPECT_NE(res.deadlock_detail.find("stuck"), std::string::npos);
  EXPECT_NE(res.deadlock_detail.find("never-satisfied"), std::string::npos);
  EXPECT_NE(res.deadlock_detail.find("blocked"), std::string::npos);
  EXPECT_NE(w->trace().to_string().find("deadlock"), std::string::npos);
}

TEST(World, DeadlockDiagnosticsCanBeDisabled) {
  auto w = std::make_unique<World>(
      Config{.deadlock_diagnostics = false},
      std::make_unique<SeededCoin>(1));
  w->add_process("stuck", [](Proc p) -> Task<void> {
    co_await p.wait_until([] { return false; }, "never");
  });
  FirstEnabledAdversary adv;
  const RunResult res = w->run(adv);
  ASSERT_EQ(res.status, RunStatus::kDeadlock);
  EXPECT_TRUE(res.deadlock_detail.empty());
}

TEST(World, StepBudgetExhaustion) {
  auto w = make_world(/*max_steps=*/10);
  w->add_process("spin", [](Proc p) -> Task<void> {
    for (;;) co_await p.yield(StepKind::kLocal, "spin");
  });
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kStepBudgetExhausted);
}

TEST(World, CrashEventsOnlyWhenBudgeted) {
  auto w = make_world(10000, /*max_crashes=*/1);
  w->add_process("victim", [](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "x");
  });
  const auto events = w->enabled_events();
  ASSERT_EQ(events.size(), 2u);  // resume + crash
  EXPECT_EQ(events[1].kind, Event::Kind::kCrash);
  w->execute(events[1]);
  EXPECT_TRUE(w->crashed(0));
  EXPECT_TRUE(w->finished());
  EXPECT_TRUE(w->enabled_events().empty());
}

TEST(World, InvocationRecordingProducesCallAndReturn) {
  auto w = make_world();
  const int obj = w->register_object("reg");
  w->add_process("p", [&w, obj](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "go");
    const InvocationId inv = p.world().begin_invocation(
        p.pid(), obj, "Read", {});
    p.world().mark_line(inv, 22);
    p.world().end_invocation(inv, Value(std::int64_t{7}));
  });
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
  ASSERT_EQ(w->invocations().size(), 1u);
  const InvocationRecord& rec = w->invocations()[0];
  EXPECT_EQ(rec.method, "Read");
  EXPECT_EQ(rec.object_name, "reg");
  EXPECT_LT(rec.call_index, rec.return_index);
  EXPECT_EQ(rec.max_line_passed, 22);
  ASSERT_EQ(rec.line_passes.size(), 1u);
  EXPECT_GT(rec.line_passes[0].second, rec.call_index);
  EXPECT_LT(rec.line_passes[0].second, rec.return_index);
  ASSERT_TRUE(rec.result.has_value());
  EXPECT_EQ(*rec.result, Value(std::int64_t{7}));
}

TEST(World, PerProcessInvocationSequence) {
  auto w = make_world();
  const int obj = w->register_object("reg");
  w->add_process("p", [&w, obj](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "go");
    for (int i = 0; i < 3; ++i) {
      const InvocationId inv =
          p.world().begin_invocation(p.pid(), obj, "Read", {});
      p.world().end_invocation(inv, {});
    }
  });
  FirstEnabledAdversary adv;
  EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
  ASSERT_EQ(w->invocations().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w->invocations()[static_cast<std::size_t>(i)].per_process_seq,
              i);
  }
}

TEST(World, UniformAdversaryCompletesManySeeds) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto w = make_world();
    int done = 0;
    for (int i = 0; i < 3; ++i) {
      w->add_process(std::string("p").append(std::to_string(i)),
                     [&done](Proc p) -> Task<void> {
                       for (int s = 0; s < 5; ++s) {
                         co_await p.yield(StepKind::kLocal, "s");
                       }
                       ++done;
                     });
    }
    UniformAdversary adv(seed);
    EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
    EXPECT_EQ(done, 3);
  }
}

TEST(World, TraceRecordsSchedulerSteps) {
  auto w = make_world();
  w->add_process("p", [](Proc p) -> Task<void> {
    co_await p.yield(StepKind::kLocal, "one");
  });
  FirstEnabledAdversary adv;
  const RunResult r = w->run(adv);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(r.steps, 2);  // start + one yield
  ASSERT_GE(w->trace().size(), 1);
  EXPECT_EQ(w->trace().entries()[0].kind, StepKind::kSpawn);
}

}  // namespace
}  // namespace blunt::sim
