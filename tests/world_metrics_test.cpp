// Integration tests: the World's metrics registry against ground truth from
// the trace, plus the determinism guarantee (metrics cannot perturb runs).
#include <gtest/gtest.h>

#include <memory>

#include "objects/abd.hpp"
#include "obs/metrics.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt {
namespace {

std::unique_ptr<sim::World> make_abd_world(bool metrics, std::uint64_t seed,
                                           int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.metrics = metrics},
      std::make_unique<sim::SeededCoin>(seed));
  auto reg = std::make_shared<objects::AbdRegister>(
      "R", *w,
      objects::AbdRegister::Options{.num_processes = 3,
                                    .preamble_iterations = k});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process(std::string("p").append(std::to_string(pid)),
                   [reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg->write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg->read(p);
                     co_await reg->write(p, sim::Value(std::int64_t{pid + 3}));
                   });
  }
  return w;
}

int count_kind(const sim::Trace& t, sim::StepKind kind) {
  int n = 0;
  for (const sim::TraceEntry& e : t.entries()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

TEST(WorldMetrics, OffByDefault) {
  auto w = std::make_unique<sim::World>(
      sim::Config{}, std::make_unique<sim::SeededCoin>(0));
  EXPECT_EQ(w->metrics(), nullptr);
}

TEST(WorldMetrics, StepKindCountsMatchTrace) {
  auto w = make_abd_world(/*metrics=*/true, /*seed=*/5, /*k=*/2);
  sim::UniformAdversary adv(9);
  const sim::RunResult res = w->run(adv);
  ASSERT_EQ(res.status, sim::RunStatus::kCompleted);
  ASSERT_NE(w->metrics(), nullptr);
  const obs::MetricsSnapshot s = w->metrics()->snapshot();
  const sim::Trace& t = w->trace();

  // Kinds with a 1:1 trace entry per counted scheduler step.
  EXPECT_EQ(s.counter_or("sim.steps.spawn", -1), w->process_count());
  EXPECT_EQ(s.counter_or("sim.steps.spawn", -1),
            count_kind(t, sim::StepKind::kSpawn));
  EXPECT_EQ(s.counter_or("sim.steps.deliver", -1),
            count_kind(t, sim::StepKind::kDeliver));
  EXPECT_EQ(s.counter_or("sim.steps.random", -1),
            count_kind(t, sim::StepKind::kRandom));
  EXPECT_EQ(s.counter_or("sim.steps.wait-resume", -1),
            count_kind(t, sim::StepKind::kWaitResume));
  EXPECT_EQ(s.counter_or("sim.steps.crash", -1), 0);

  // Every scheduler step is attributed to exactly one kind.
  std::int64_t total = 0;
  for (int k = 0; k < sim::kNumStepKinds; ++k) {
    total += s.counter_or(std::string(obs::kStepsByKindPrefix) +
                              sim::to_string(static_cast<sim::StepKind>(k)),
                          0);
  }
  EXPECT_EQ(total, w->steps_executed());

  EXPECT_EQ(s.counter_or(obs::kRandomDraws, -1), w->random_draws());
  EXPECT_GT(s.counter_or(obs::kRandomDraws, 0), 0);  // ABD^2 draws coins
}

TEST(WorldMetrics, InvocationLatencyHistogramCountsCompletions) {
  auto w = make_abd_world(/*metrics=*/true, /*seed=*/2, /*k=*/1);
  sim::UniformAdversary adv(3);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const obs::MetricsSnapshot s = w->metrics()->snapshot();
  const auto it = s.histograms.find(obs::kInvocationLatency);
  ASSERT_NE(it, s.histograms.end());
  EXPECT_EQ(it->second.count,
            static_cast<std::int64_t>(w->invocations().size()));
  EXPECT_GE(it->second.min, 1.0);  // a quorum operation takes >= 1 step
  EXPECT_GE(it->second.percentiles.p99, it->second.percentiles.p50);
}

TEST(WorldMetrics, NetworkAndPreambleCounters) {
  auto w = make_abd_world(/*metrics=*/true, /*seed=*/8, /*k=*/3);
  sim::UniformAdversary adv(4);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const obs::MetricsSnapshot s = w->metrics()->snapshot();

  const std::int64_t sent = s.counter_or(obs::kMessagesSent, -1);
  const std::int64_t delivered = s.counter_or(obs::kMessagesDelivered, -1);
  const std::int64_t dropped = s.counter_or(obs::kMessagesDropped, 0);
  EXPECT_GT(sent, 0);
  // The run completed with no crashes: everything sent was delivered.
  EXPECT_EQ(delivered + dropped, sent);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(delivered, count_kind(w->trace(), sim::StepKind::kDeliver));

  EXPECT_GT(s.counter_or(obs::kQuorumRoundTrips, 0), 0);

  // Algorithm 4 with k = 3: each transformed operation executes 3 preamble
  // iterations and keeps exactly one.
  const std::int64_t executed = s.counter_or(obs::kPreambleExecuted, -1);
  const std::int64_t kept = s.counter_or(obs::kPreambleKept, -1);
  EXPECT_GT(kept, 0);
  EXPECT_EQ(executed, 3 * kept);
}

TEST(WorldMetrics, MetricsDoNotPerturbTheSchedule) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 17ULL}) {
    auto on = make_abd_world(/*metrics=*/true, seed, /*k=*/2);
    auto off = make_abd_world(/*metrics=*/false, seed, /*k=*/2);
    sim::UniformAdversary adv_on(seed + 1);
    sim::UniformAdversary adv_off(seed + 1);
    const sim::RunResult r_on = on->run(adv_on);
    const sim::RunResult r_off = off->run(adv_off);
    EXPECT_EQ(r_on.status, r_off.status);
    EXPECT_EQ(r_on.steps, r_off.steps);
    EXPECT_EQ(on->trace().to_string(), off->trace().to_string());
  }
}

}  // namespace
}  // namespace blunt
