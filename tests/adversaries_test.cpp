// Unit tests for the basic sim-level adversaries and the scripted-adversary
// DSL.
#include "sim/adversaries.hpp"

#include <gtest/gtest.h>

#include "adversary/scripted.hpp"
#include "mem/base_register.hpp"
#include "test_util.hpp"

namespace blunt {
namespace {

using sim::Event;
using sim::Proc;
using sim::StepKind;
using sim::Task;

std::unique_ptr<sim::World> two_step_world(std::vector<int>* order) {
  auto w = test::make_world();
  for (int id = 0; id < 2; ++id) {
    w->add_process(std::string("p").append(std::to_string(id)),
                   [order, id](Proc p) -> Task<void> {
                     co_await p.yield(StepKind::kLocal, "s");
                     order->push_back(id);
                   });
  }
  return w;
}

TEST(RoundRobinAdversary, AlternatesProcesses) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  sim::RoundRobinAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ReplayAdversary, ReportsOverflow) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  sim::ReplayAdversary adv({1});  // only the first step scripted
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_GT(adv.overflow_steps(), 0);
  EXPECT_EQ(adv.consumed(), 1u);
}

TEST(ScriptedAdversary, StepsMatchInOrder) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  adversary::ScriptedAdversary adv;
  adv.step("p1 first", adversary::resume(1, "start"))
      .step("p1 body", adversary::resume(1, "s"))
      .step("p0 first", adversary::resume(0, "start"))
      .step("p0 body", adversary::resume(0, "s"));
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_TRUE(adv.script_finished());
  EXPECT_EQ(adv.overflow_steps(), 0);
}

TEST(ScriptedAdversary, UnmatchedStepAborts) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  adversary::ScriptedAdversary adv;
  adv.step("nonexistent process", adversary::resume(7, ""));
  EXPECT_DEATH((void)w->run(adv), "matched no enabled event");
}

TEST(ScriptedAdversary, DriveRunsUntilCondition) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  adversary::ScriptedAdversary adv;
  bool p0_done_seen = false;
  adv.drive("run p0 to completion", {adversary::resume(0, "")},
            [&](const sim::World& world) {
              const bool done = world.process_done(0);
              p0_done_seen = p0_done_seen || done;
              return done;
            })
      .drive("finish", {adversary::resume(1, "")},
             [](const sim::World& world) { return world.finished(); });
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(p0_done_seen);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ScriptedAdversary, DrivePrioritiesAreOrdered) {
  // Two processes enabled; the drive prefers p1 via priority order.
  std::vector<int> order;
  auto w = two_step_world(&order);
  adversary::ScriptedAdversary adv;
  adv.drive("prefer p1",
            {adversary::resume(1, ""), adversary::resume(0, "")},
            [](const sim::World& world) { return world.finished(); });
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(ScriptedAdversary, BranchSplicesSubScript) {
  std::vector<int> order;
  auto w = two_step_world(&order);
  adversary::ScriptedAdversary adv;
  adv.branch("choose dynamically",
             [](const sim::World&, adversary::ScriptedAdversary& sub) {
               sub.step("p1 start", adversary::resume(1, "start"))
                   .step("p1 body", adversary::resume(1, "s"));
             })
      .drive("rest", {adversary::resume(0, "")},
             [](const sim::World& world) { return world.finished(); });
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Matchers, DeliverMatchesRecipientAndParts) {
  const adversary::Matcher m =
      adversary::deliver(2, std::vector<std::string>{"update sn=1", "from p0"});
  auto w = test::make_world();  // world unused by matcher
  Event hit{Event::Kind::kDeliver, 2, 0, 5,
            "R update sn=1 val=1 ts=(1,1) from p0"};
  Event wrong_pid{Event::Kind::kDeliver, 1, 0, 5,
                  "R update sn=1 val=1 ts=(1,1) from p0"};
  Event wrong_part{Event::Kind::kDeliver, 2, 0, 5,
                   "R update sn=2 val=1 ts=(1,1) from p0"};
  Event not_deliver{Event::Kind::kResume, 2, -1, -1,
                    "R update sn=1 from p0"};
  EXPECT_TRUE(m(*w, hit));
  EXPECT_FALSE(m(*w, wrong_pid));
  EXPECT_FALSE(m(*w, wrong_part));
  EXPECT_FALSE(m(*w, not_deliver));
}

TEST(Matchers, ResumeWithEmptyLabelMatchesAnyLabel) {
  const adversary::Matcher m = adversary::resume(1, "");
  auto w = test::make_world();
  EXPECT_TRUE(m(*w, {Event::Kind::kResume, 1, -1, -1, "anything"}));
  EXPECT_FALSE(m(*w, {Event::Kind::kResume, 0, -1, -1, "anything"}));
}

}  // namespace
}  // namespace blunt
