// Schedule shrinker: descriptor record/replay fidelity, ddmin minimization,
// and the end-to-end planted-bug pipeline (record -> shrink -> minimal
// scripted counterexample).
#include "adversary/shrink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::adversary {
namespace {

EventDescriptor resume_d(Pid pid) {
  return {sim::Event::Kind::kResume, pid, -1, "work"};
}

TEST(Ddmin, KeepsExactlyTheFailureRelevantEvents) {
  std::vector<EventDescriptor> schedule;
  for (Pid pid = 0; pid < 20; ++pid) schedule.push_back(resume_d(pid));
  // "Fails" iff both pid 3 and pid 11 survive, regardless of anything else.
  const auto fails = [](const std::vector<EventDescriptor>& s) {
    bool a = false;
    bool b = false;
    for (const EventDescriptor& d : s) {
      a = a || d.pid == 3;
      b = b || d.pid == 11;
    }
    return a && b;
  };
  const std::vector<EventDescriptor> minimal =
      shrink_schedule(fails, schedule);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].pid, 3);  // order preserved
  EXPECT_EQ(minimal[1].pid, 11);
}

TEST(Ddmin, ShrinksToEmptyWhenNothingIsNeeded) {
  std::vector<EventDescriptor> schedule;
  for (Pid pid = 0; pid < 7; ++pid) schedule.push_back(resume_d(pid));
  const auto always = [](const std::vector<EventDescriptor>&) {
    return true;
  };
  EXPECT_TRUE(shrink_schedule(always, schedule).empty());
}

struct AbdWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> reg;
};

AbdWorld make_abd(std::uint64_t coin_seed, objects::AbdBug bug) {
  AbdWorld aw;
  aw.world = std::make_unique<sim::World>(
      sim::Config{}, std::make_unique<sim::SeededCoin>(coin_seed));
  aw.reg = std::make_unique<objects::AbdRegister>(
      "R", *aw.world,
      objects::AbdRegister::Options{.num_processes = 3, .bug = bug});
  // One writer + two double-readers: the workload shape that exposes a
  // sub-majority quorum as a stale read (see abd_fault_test for why a
  // read-own-write workload would mask it).
  objects::AbdRegister& reg = *aw.reg;
  aw.world->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{7}));
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    aw.world->add_process(std::string("r").append(std::to_string(pid)),
                          [&reg](sim::Proc p) -> sim::Task<void> {
                            (void)co_await reg.read(p);
                            (void)co_await reg.read(p);
                          });
  }
  return aw;
}

TEST(RecordReplay, RoundTripsToTheIdenticalExecution) {
  AbdWorld recorded = make_abd(3, objects::AbdBug::kNone);
  sim::UniformAdversary uniform(17);
  RecordingAdversary recorder(uniform);
  ASSERT_EQ(recorded.world->run(recorder).status,
            sim::RunStatus::kCompleted);

  AbdWorld replayed = make_abd(3, objects::AbdBug::kNone);
  EventReplayAdversary replay(recorder.schedule());
  ASSERT_EQ(replayed.world->run(replay).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(replay.skipped(), 0);
  EXPECT_EQ(replay.overflow_steps(), 0);
  EXPECT_EQ(recorded.world->trace().to_string(),
            replayed.world->trace().to_string());
}

bool violates_lin(std::uint64_t coin_seed,
                  const std::vector<EventDescriptor>& schedule) {
  AbdWorld aw = make_abd(coin_seed, objects::AbdBug::kSubMajorityQuorum);
  EventReplayAdversary adv(schedule);
  if (aw.world->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::RegisterSpec spec;
  return !lin::check_linearizable(lin::History::from_world(*aw.world), spec)
              .linearizable;
}

TEST(Shrink, MinimizesAPlantedQuorumBugCounterexample) {
  // Soak the sub-majority-quorum bug until a seed fails, then shrink.
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    AbdWorld aw = make_abd(seed, objects::AbdBug::kSubMajorityQuorum);
    sim::UniformAdversary uniform(seed * 13 + 1);
    RecordingAdversary recorder(uniform);
    if (aw.world->run(recorder).status != sim::RunStatus::kCompleted) {
      continue;
    }
    lin::RegisterSpec spec;
    if (lin::check_linearizable(lin::History::from_world(*aw.world), spec)
            .linearizable) {
      continue;
    }
    // Found a violation; it must replay deterministically...
    ASSERT_TRUE(violates_lin(seed, recorder.schedule()));
    // ...and shrink to a strictly smaller, still-failing schedule.
    const auto fails = [seed](const std::vector<EventDescriptor>& s) {
      return violates_lin(seed, s);
    };
    const std::vector<EventDescriptor> minimal =
        shrink_schedule(fails, recorder.schedule());
    EXPECT_LT(minimal.size(), recorder.schedule().size());
    EXPECT_FALSE(minimal.empty());
    EXPECT_TRUE(violates_lin(seed, minimal));
    // The printed program is a usable artifact.
    const std::string program = to_scripted_program(minimal);
    EXPECT_NE(program.find("ScriptedAdversary"), std::string::npos);
    EXPECT_NE(program.find("adv.step("), std::string::npos);
    return;  // one shrunk counterexample is the point
  }
  FAIL() << "no seed in the sweep exposed the planted quorum bug";
}

TEST(EventReplay, RepairsAreCountedOnMalformedSchedules) {
  // A schedule of descriptors that can never match (pids outside the world,
  // bogus payloads): every descriptor is skipped, the run falls back to
  // first-enabled steps, and both deviations are counted instead of asserted
  // or crashed on.
  std::vector<EventDescriptor> garbage;
  for (int i = 0; i < 5; ++i) {
    garbage.push_back({sim::Event::Kind::kResume, static_cast<Pid>(40 + i),
                       -1, "no-such-event"});
  }
  AbdWorld aw = make_abd(1, objects::AbdBug::kNone);
  EventReplayAdversary adv(garbage);
  const sim::RunStatus status = aw.world->run(adv).status;
  EXPECT_EQ(status, sim::RunStatus::kCompleted);
  EXPECT_EQ(adv.skipped(), 5);
  EXPECT_GT(adv.overflow_steps(), 0);
}

TEST(ToScriptedProgram, CoversEveryEventKind) {
  std::vector<EventDescriptor> schedule = {
      {sim::Event::Kind::kResume, 1, -1, "R.query-bcast"},
      {sim::Event::Kind::kDeliver, 2, 0, "R query sn=0 from p1"},
      {sim::Event::Kind::kCrash, 0, -1, "crash"},
      {sim::Event::Kind::kTick, -1, -1, "fault-tick"},
  };
  const std::string program = to_scripted_program(schedule, "adv");
  EXPECT_NE(program.find("adversary::resume(1, \"R.query-bcast\")"),
            std::string::npos);
  EXPECT_NE(program.find("adversary::deliver(2, \"R query sn=0 from p1\")"),
            std::string::npos);
  EXPECT_NE(program.find("adversary::crash(0)"), std::string::npos);
  EXPECT_NE(program.find("adversary::tick()"), std::string::npos);
}

}  // namespace
}  // namespace blunt::adversary
