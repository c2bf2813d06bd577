// Fault injection: crash-stop failures during ABD runs (the crash-prone
// message-passing model of Section 2.1 / [3]).
//
// ABD tolerates any minority of crashes: operations by surviving processes
// complete, and every resulting history is linearizable — even when the
// crash hits mid-operation (a pending op simply stays pending; its update
// may or may not have taken effect, and the checker accepts both).
#include <gtest/gtest.h>

#include <random>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

// Runs the weakener over ABD, crashing `victim` after `delay` scheduler
// steps. Returns false if the run failed to complete.
struct CrashRun {
  bool completed = false;
  bool linearizable = false;
  std::vector<bool> survivor_done;
};

// Uniform over non-crash events: the test injects exactly one targeted
// crash itself; the tail scheduler must not spend the remaining budget on a
// survivor.
class NoCrashUniform final : public sim::Adversary {
 public:
  explicit NoCrashUniform(std::uint64_t seed) : rng_(seed) {}

  std::size_t choose(const sim::World&,
                     const sim::EnabledView& enabled) override {
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      if (enabled[i].kind != sim::Event::Kind::kCrash) ok.push_back(i);
    }
    BLUNT_ASSERT(!ok.empty(), "only crash events enabled");
    std::uniform_int_distribution<std::size_t> dist(0, ok.size() - 1);
    return ok[dist(rng_)];
  }

 private:
  std::mt19937_64 rng_;
};

CrashRun run_with_crash(std::uint64_t seed, Pid victim, int delay, int k) {
  auto w = test::make_world(seed, /*max_steps=*/300000, /*max_crashes=*/1);
  AbdRegister r("R", *w, {.num_processes = 3, .preamble_iterations = k});
  AbdRegister c("C", *w,
                {.num_processes = 3,
                 .initial = sim::Value(std::int64_t{-1}),
                 .preamble_iterations = k});
  programs::WeakenerOutcome out;
  programs::install_weakener(*w, r, c, out);

  // Run `delay` random steps, then crash the victim, then run to the end.
  NoCrashUniform adv(seed * 7 + 3);
  for (int i = 0; i < delay && !w->finished(); ++i) {
    const sim::EnabledView events = w->enabled_events();
    if (events.without_crashes().empty()) break;
    w->execute(events[adv.choose(*w, events)]);
  }
  if (!w->crashed(victim) && !w->process_done(victim) && !w->finished()) {
    for (const auto& e : w->enabled_events()) {
      if (e.kind == sim::Event::Kind::kCrash && e.pid == victim) {
        w->execute(e);
        break;
      }
    }
  }
  CrashRun res;
  res.completed = w->run(adv).status == sim::RunStatus::kCompleted;
  if (!res.completed) return res;
  for (Pid pid = 0; pid < 3; ++pid) {
    if (pid != victim) res.survivor_done.push_back(w->process_done(pid));
  }
  const lin::History h = lin::History::from_world(*w);
  lin::RegisterSpec spec_r;
  lin::RegisterSpec spec_c{sim::Value(std::int64_t{-1})};
  res.linearizable =
      lin::check_linearizable(h.project_object(r.object_id()), spec_r)
          .linearizable &&
      lin::check_linearizable(h.project_object(c.object_id()), spec_c)
          .linearizable;
  return res;
}

class CrashSoak
    : public ::testing::TestWithParam<std::tuple<int /*victim*/, int /*k*/>> {
};

TEST_P(CrashSoak, SurvivorsCompleteAndStayLinearizable) {
  const auto [victim, k] = GetParam();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    // Crash at various depths, including mid-operation.
    const int delay = static_cast<int>(seed) * 7;
    const CrashRun res =
        run_with_crash(seed, static_cast<Pid>(victim), delay, k);
    ASSERT_TRUE(res.completed)
        << "victim=" << victim << " k=" << k << " seed=" << seed;
    for (const bool done : res.survivor_done) {
      EXPECT_TRUE(done) << "victim=" << victim << " seed=" << seed;
    }
    EXPECT_TRUE(res.linearizable)
        << "victim=" << victim << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VictimsAndK, CrashSoak,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2)),
    [](const auto& info) {
      return "victim" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Crash, CrashedProcessNeverActsAgain) {
  auto w = test::make_world(1, 300000, 1);
  AbdRegister r("R", *w, {.num_processes = 3});
  programs::WeakenerOutcome out;
  AbdRegister c("C", *w,
                {.num_processes = 3,
                 .initial = sim::Value(std::int64_t{-1})});
  programs::install_weakener(*w, r, c, out);
  // Crash p0 immediately.
  for (const auto& e : w->enabled_events()) {
    if (e.kind == sim::Event::Kind::kCrash && e.pid == 0) {
      w->execute(e);
      break;
    }
  }
  sim::UniformAdversary adv(5);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  // p0 never spawned: no trace entry is attributed to a p0 process step
  // after the crash (deliveries to p0's replica are dropped too).
  bool p0_acted = false;
  bool crash_seen = false;
  for (const auto& entry : w->trace().entries()) {
    if (entry.kind == sim::StepKind::kCrash && entry.pid == 0) {
      crash_seen = true;
      continue;
    }
    if (crash_seen && entry.pid == 0) p0_acted = true;
  }
  EXPECT_TRUE(crash_seen);
  EXPECT_FALSE(p0_acted);
  // The weakener's outcome: p0's write never happened, so p2 can only have
  // read ⊥ or 1 from R.
  EXPECT_NE(out.u1, sim::Value(std::int64_t{0}));
  EXPECT_NE(out.u2, sim::Value(std::int64_t{0}));
}

}  // namespace
}  // namespace blunt::objects
