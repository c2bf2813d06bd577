// Fault-injection subsystem: plan generation, deterministic loss/dup
// streams, partition hold-and-heal semantics, scripted crash execution, and
// deadlock diagnostics for partitioned messages.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::fault {
namespace {

struct Msg {
  int tag = 0;
  [[nodiscard]] std::string summary() const {
    return "msg" + std::to_string(tag);
  }
};

TEST(FaultPlan, GeneratorIsDeterministic) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_EQ(random_plan(seed).to_string(), random_plan(seed).to_string());
  }
  EXPECT_NE(random_plan(1).to_string(), random_plan(2).to_string());
}

TEST(FaultPlan, GeneratorRespectsBounds) {
  const PlanOptions opts;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan p = random_plan(seed, opts);
    EXPECT_EQ(p.num_processes, opts.num_processes);
    EXPECT_LE(p.loss_permille, opts.max_loss_permille);
    EXPECT_LE(p.loss_budget_per_channel, opts.max_loss_budget);
    EXPECT_LE(p.dup_permille, opts.max_dup_permille);
    EXPECT_LE(p.dup_budget_per_channel, opts.max_dup_budget);
    EXPECT_LE(static_cast<int>(p.partitions.size()), opts.max_partitions);
    for (const Partition& part : p.partitions) {
      EXPECT_GT(part.heal_step, part.open_step);
      EXPECT_LE(part.heal_step, opts.horizon_steps);
      // Non-trivial bipartition: both sides inhabited.
      bool a = false;
      bool b = false;
      for (Pid pid = 0; pid < p.num_processes; ++pid) {
        (((part.side_mask >> pid) & 1u) ? a : b) = true;
      }
      EXPECT_TRUE(a && b);
    }
    // At most a minority crashes, each process at most once.
    EXPECT_LE(static_cast<int>(p.crashes.size()),
              (opts.num_processes - 1) / 2);
    for (std::size_t i = 0; i + 1 < p.crashes.size(); ++i) {
      EXPECT_LE(p.crashes[i].at_step, p.crashes[i + 1].at_step);
      for (std::size_t j = i + 1; j < p.crashes.size(); ++j) {
        EXPECT_NE(p.crashes[i].pid, p.crashes[j].pid);
      }
    }
    EXPECT_TRUE(p.quorum_preserving());
  }
}

TEST(FaultInjector, LossIsBudgetedAndDeterministic) {
  FaultPlan plan;
  plan.seed = 7;
  plan.num_processes = 2;
  plan.loss_permille = 1000;  // lose everything the budget allows
  plan.loss_budget_per_channel = 2;

  auto run_once = [&plan] {
    sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
    FaultInjector inj(plan, w);
    net::Network<Msg> net("n", 2, nullptr);
    net.set_handler(1, [](Pid, Pid, const Msg&) {});
    net.set_fault_layer(&inj);
    for (int i = 0; i < 5; ++i) net.send(0, 1, {i});
    return std::pair{net.messages_lost(), net.in_transit_count()};
  };
  const auto [lost, in_transit] = run_once();
  EXPECT_EQ(lost, 2);        // budget caps the stream
  EXPECT_EQ(in_transit, 3);  // the rest got through
  EXPECT_EQ(run_once(), std::make_pair(lost, in_transit));  // replayable
}

TEST(FaultInjector, DuplicationIsBudgetedAndPerChannel) {
  FaultPlan plan;
  plan.seed = 9;
  plan.num_processes = 3;
  plan.dup_permille = 1000;
  plan.dup_budget_per_channel = 1;

  sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
  FaultInjector inj(plan, w);
  net::Network<Msg> net("n", 3, nullptr);
  for (Pid p = 0; p < 3; ++p) net.set_handler(p, [](Pid, Pid, const Msg&) {});
  net.set_fault_layer(&inj);
  for (int i = 0; i < 3; ++i) net.send(0, 1, {i});
  EXPECT_EQ(net.messages_duplicated(), 1);  // budget is per channel
  net.send(0, 2, {9});
  EXPECT_EQ(net.messages_duplicated(), 2);  // fresh channel, fresh budget
  EXPECT_EQ(net.in_transit_count(), 3 + 1 + 1 + 1);
}

TEST(FaultInjector, PartitionHoldsMessagesUntilHeal) {
  FaultPlan plan;
  plan.num_processes = 2;
  plan.partitions.push_back({/*side_mask=*/0b01, /*open=*/0, /*heal=*/4});

  sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
  FaultInjector inj(plan, w);
  net::Network<Msg> net("n", 2, &w.trace_mutable());
  int got = -1;
  net.set_handler(0, [](Pid, Pid, const Msg&) {});
  net.set_handler(1, [&got, &w](Pid to, Pid, const Msg& m) {
    got = m.tag;
    w.wake_hint(to);
  });
  net.set_fault_layer(&inj);
  w.attach(net);

  w.add_process("sender", [&net](sim::Proc p) -> sim::Task<void> {
    co_await p.yield(sim::StepKind::kSend, "send");
    net.send(p.pid(), 1, {42});
  });
  w.add_process("receiver", [&got](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&got] { return got == 42; }, "await-msg");
  });

  // Not lost — held: the message survives in transit while the partition is
  // up, the receiver blocks, and the only way forward is the fault tick.
  sim::FirstEnabledAdversary adv;
  const sim::RunResult res = w.run(adv);
  EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(net.messages_lost(), 0);
  EXPECT_EQ(inj.partitions_opened(), 1);
  EXPECT_EQ(inj.partitions_healed(), 1);
  // The heal and the tick both appear in the trace.
  const std::string trace = w.trace().to_string();
  EXPECT_NE(trace.find("partition open"), std::string::npos);
  EXPECT_NE(trace.find("partition heal"), std::string::npos);
  EXPECT_NE(trace.find("fault-tick"), std::string::npos);
}

TEST(FaultInjector, PartitionedMessagesShowInDeadlockDiagnostics) {
  FaultPlan plan;
  plan.num_processes = 2;
  plan.partitions.push_back({/*side_mask=*/0b01, /*open=*/0,
                             /*heal=*/1000000});

  sim::World w(sim::Config{}, std::make_unique<sim::SeededCoin>(1));
  FaultInjector inj(plan, w);
  net::Network<Msg> net("n", 2, nullptr);
  net.set_handler(0, [](Pid, Pid, const Msg&) {});
  net.set_handler(1, [](Pid, Pid, const Msg&) {});
  net.set_fault_layer(&inj);
  w.attach(net);
  net.send(0, 1, {5});
  inj.on_step(w);  // step 0: the partition opens

  const std::string stuck = w.describe_stuck();
  EXPECT_NE(stuck.find("held by partition"), std::string::npos);
  EXPECT_NE(stuck.find("msg5"), std::string::npos);
}

TEST(ChaosAdversary, ExecutesExactlyTheScriptedCrashes) {
  FaultPlan plan;
  plan.num_processes = 2;
  plan.crashes.push_back({/*at_step=*/2, /*pid=*/1});

  sim::World w(sim::Config{.max_crashes = 1},
               std::make_unique<sim::SeededCoin>(1));
  FaultInjector inj(plan, w);
  int p0_steps = 0;
  for (Pid pid = 0; pid < 2; ++pid) {
    w.add_process(std::string("p").append(std::to_string(pid)),
                  [pid, &p0_steps](sim::Proc p) -> sim::Task<void> {
                    for (int i = 0; i < 6; ++i) {
                      co_await p.yield(sim::StepKind::kLocal, "work");
                      if (pid == 0) ++p0_steps;
                    }
                  });
  }
  sim::FirstEnabledAdversary inner;
  ChaosAdversary adv(inner, plan, &inj);
  const sim::RunResult res = w.run(adv);
  EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(w.crashed(1));       // the scripted victim died...
  EXPECT_FALSE(w.crashed(0));      // ...and nobody else did
  EXPECT_EQ(p0_steps, 6);          // survivor ran to completion
  EXPECT_EQ(inj.crashes_injected(), 1);
}

TEST(ChaosAdversary, SkipsCrashOfFinishedProcess) {
  FaultPlan plan;
  plan.num_processes = 2;
  // Scheduled far past the tiny workload: by then the victim is done and
  // its crash event no longer exists — the plan entry is skipped, not stuck.
  plan.crashes.push_back({/*at_step=*/1000000, /*pid=*/0});

  sim::World w(sim::Config{.max_crashes = 1},
               std::make_unique<sim::SeededCoin>(1));
  FaultInjector inj(plan, w);
  for (Pid pid = 0; pid < 2; ++pid) {
    w.add_process(std::string("p").append(std::to_string(pid)),
                  [](sim::Proc p) -> sim::Task<void> {
                    co_await p.yield(sim::StepKind::kLocal, "work");
                  });
  }
  sim::FirstEnabledAdversary inner;
  ChaosAdversary adv(inner, plan, &inj);
  EXPECT_EQ(w.run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_FALSE(w.crashed(0));
  EXPECT_EQ(inj.crashes_injected(), 0);
}

}  // namespace
}  // namespace blunt::fault
