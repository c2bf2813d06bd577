// Determinism guarantees: an execution is a pure function of (coin script,
// event-choice sequence) — the property the replay explorer and every exact
// claim in this repo rest on — plus the merge/merge_traced soundness
// distinction at the lin level.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/strong.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt {
namespace {

std::string run_weakener_trace(std::uint64_t coin_seed,
                               std::uint64_t sched_seed) {
  auto w = test::make_world(coin_seed);
  objects::AbdRegister r("R", *w, {.num_processes = 3,
                                   .preamble_iterations = 2});
  objects::AbdRegister c("C", *w,
                         {.num_processes = 3,
                          .initial = sim::Value(std::int64_t{-1}),
                          .preamble_iterations = 2});
  programs::WeakenerOutcome out;
  programs::install_weakener(*w, r, c, out);
  sim::UniformAdversary adv(sched_seed);
  EXPECT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  return w->trace().to_string();
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  // Full ABD² weakener runs: byte-identical traces across replays.
  EXPECT_EQ(run_weakener_trace(3, 7), run_weakener_trace(3, 7));
  EXPECT_EQ(run_weakener_trace(11, 23), run_weakener_trace(11, 23));
}

std::string run_chaos_trace(bool metrics) {
  const fault::FaultPlan plan = fault::random_plan(99);
  auto w = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = metrics},
      std::make_unique<sim::SeededCoin>(5));
  objects::AbdRegister reg(
      "R", *w, {.num_processes = 3, .max_retransmits = 12});
  fault::FaultInjector inj(plan, *w);
  reg.set_fault_layer(&inj);
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process(std::string("p").append(std::to_string(pid)),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary uniform(7);
  fault::ChaosAdversary adv(uniform, plan, &inj);
  EXPECT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  return w->trace().to_string();
}

TEST(Determinism, FaultMetricsDoNotPerturbTheSchedule) {
  // The fault.* counters are observational only: a faulty run must take the
  // byte-identical schedule (and inject the byte-identical faults) whether
  // or not the metrics registry is recording it.
  EXPECT_EQ(run_chaos_trace(false), run_chaos_trace(true));
}

TEST(Determinism, ChaosRunsReplayByteIdentically) {
  EXPECT_EQ(run_chaos_trace(true), run_chaos_trace(true));
}

TEST(Determinism, DifferentSchedulerSeedsDiverge) {
  EXPECT_NE(run_weakener_trace(3, 7), run_weakener_trace(3, 8));
}

TEST(Determinism, DifferentCoinSeedsUsuallyDiverge) {
  // The coin seed feeds both the program coin and the k=2 object randoms;
  // at least one of these nearby seeds flips some draw.
  bool diverged = false;
  for (std::uint64_t s = 0; s < 4 && !diverged; ++s) {
    diverged = run_weakener_trace(s, 7) != run_weakener_trace(s + 100, 7);
  }
  EXPECT_TRUE(diverged);
}

// Regression for the merge soundness bug found via single-writer ABD: two
// DIFFERENT executions with IDENTICAL history prefixes must not share nodes
// under merge_traced (strong linearizability does not require f to agree on
// them), while plain merge (history-keyed, for synthetic trees) merges them.
TEST(MergeTraced, DistinguishesExecutionsWithEqualHistories) {
  test::HistoryBuilder hb1;
  hb1.write(0, 1, 0, 1);
  hb1.read(1, 1, 2, 5);
  const lin::History h1 = hb1.build();
  test::HistoryBuilder hb2;
  hb2.write(0, 1, 0, 1);
  hb2.read(1, 1, 2, 5);
  const lin::History h2 = hb2.build();

  // Two traces that differ at entry 3 (inside the read's span).
  auto make_trace = [](const std::string& marker) {
    sim::Trace t;
    t.append({.pid = 0, .kind = sim::StepKind::kCall, .what = "W"});
    t.append({.pid = 0, .kind = sim::StepKind::kReturn, .what = "W"});
    t.append({.pid = 1, .kind = sim::StepKind::kCall, .what = "R"});
    t.append({.pid = 1, .kind = sim::StepKind::kLocal, .what = marker});
    t.append({.pid = 1, .kind = sim::StepKind::kLocal, .what = "x"});
    t.append({.pid = 1, .kind = sim::StepKind::kReturn, .what = "R"});
    return t;
  };
  const sim::Trace ta = make_trace("alpha");
  const sim::Trace tb = make_trace("beta");

  const lin::PrefixTree merged = lin::PrefixTree::merge(
      {h1, h2}, lin::PreambleMapping::trivial());
  const lin::PrefixTree traced = lin::PrefixTree::merge_traced(
      {{&h1, &ta}, {&h2, &tb}}, lin::PreambleMapping::trivial());
  // History-keyed: the identical executions collapse into one chain.
  // Trace-keyed: they share nodes up to the divergence at trace entry 3
  // (cuts 1 and 3) and then split.
  EXPECT_LT(merged.size(), traced.size());
  int branch_nodes = 0;
  for (int i = 0; i < traced.size(); ++i) {
    if (traced.node(i).children.size() == 2) ++branch_nodes;
  }
  EXPECT_EQ(branch_nodes, 1);
}

}  // namespace
}  // namespace blunt
