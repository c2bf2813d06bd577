// Tests for the Afek et al. snapshot (Section 5.2): double-collect and
// borrowed-view mechanics, wait-freedom, linearizability under adversarial
// schedules, and the preamble-iterated version.
#include "objects/snapshot.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

TEST(Snapshot, FreshScanSeesInitials) {
  auto w = test::make_world();
  AfekSnapshot snap("S", *w, {.num_processes = 3, .initial = 0});
  std::vector<std::int64_t> view;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    view = co_await snap.scan(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(view, (std::vector<std::int64_t>{0, 0, 0}));
}

TEST(Snapshot, ScanSeesOwnUpdate) {
  auto w = test::make_world();
  AfekSnapshot snap("S", *w, {.num_processes = 3});
  std::vector<std::int64_t> view;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await snap.update(p, 7);
    view = co_await snap.scan(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(view, (std::vector<std::int64_t>{7, 0, 0}));
}

TEST(Snapshot, ScanReflectsCompletedUpdatesOfOthers) {
  auto w = test::make_world();
  AfekSnapshot snap("S", *w, {.num_processes = 2});
  std::vector<std::int64_t> view;
  bool updated = false;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await snap.update(p, 3);
    updated = true;
    p.world().wake_hint(1);
  });
  w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&updated] { return updated; }, "sync");
    view = co_await snap.scan(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(view, (std::vector<std::int64_t>{3, 0}));
}

// Soak: concurrent updaters and scanners under random adversaries; each
// history must satisfy the snapshot spec (with k = 1, 2: Theorem 4.1).
class SnapshotSoak : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SnapshotSoak, HistoriesLinearizable) {
  const auto [k, seed] = GetParam();
  auto w = test::make_world(static_cast<std::uint64_t>(seed));
  AfekSnapshot snap("S", *w,
                    {.num_processes = 3, .preamble_iterations = k});
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("up" + std::to_string(pid),
                   [&snap, pid](sim::Proc p) -> sim::Task<void> {
                     co_await snap.update(p, pid * 10 + 1);
                     co_await snap.update(p, pid * 10 + 2);
                   });
  }
  w->add_process("scanner", [&snap](sim::Proc p) -> sim::Task<void> {
    (void)co_await snap.scan(p);
    (void)co_await snap.scan(p);
  });
  sim::UniformAdversary adv(static_cast<std::uint64_t>(seed) * 31 + 5);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const lin::History h = lin::History::from_world(*w);
  lin::SnapshotSpec spec(3);
  EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
      << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeeds, SnapshotSoak,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Range(0, 25)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Snapshot, BorrowedViewPathIsExercised) {
  // A scanner racing two updates from the same process can return the
  // borrowed embedded view. Drive a schedule where the scanner's collects
  // interleave with p1's two updates; whatever path is taken, the result
  // must be a legal snapshot (checked via history), and across seeds the
  // scan must terminate (wait-freedom), needing at most a bounded number of
  // collects.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    auto w = test::make_world(seed);
    AfekSnapshot snap("S", *w, {.num_processes = 2});
    w->add_process("scanner", [&](sim::Proc p) -> sim::Task<void> {
      (void)co_await snap.scan(p);
    });
    w->add_process("updater", [&](sim::Proc p) -> sim::Task<void> {
      co_await snap.update(p, 1);
      co_await snap.update(p, 2);
      co_await snap.update(p, 3);
    });
    sim::UniformAdversary adv(seed + 1000);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    const lin::History h = lin::History::from_world(*w);
    lin::SnapshotSpec spec(2);
    EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
        << "seed=" << seed << "\n"
        << h.to_string();
  }
}

TEST(SnapshotK, RunsKScanLoopsPerScan) {
  for (const int k : {1, 3}) {
    auto w = test::make_world(2);
    AfekSnapshot snap("S", *w,
                      {.num_processes = 2, .preamble_iterations = k});
    w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
      (void)co_await snap.scan(p);
    });
    sim::FirstEnabledAdversary adv;
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    // Solo scan: each scan loop needs exactly 2 collects (clean double
    // collect), and k loops run.
    EXPECT_EQ(snap.collects_run(), 2 * k) << "k=" << k;
    EXPECT_EQ(w->random_draws(), k > 1 ? 1 : 0);
  }
}

TEST(SnapshotK, UpdatePreambleExtensionIteratesEmbeddedScan) {
  auto base = test::make_world(3);
  AfekSnapshot plain("S", *base, {.num_processes = 2,
                                  .preamble_iterations = 2});
  base->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await plain.update(p, 5);
  });
  sim::FirstEnabledAdversary adv1;
  ASSERT_EQ(base->run(adv1).status, sim::RunStatus::kCompleted);
  // Update's preamble is trivial by default: no object random step.
  EXPECT_EQ(base->random_draws(), 0);
  EXPECT_EQ(plain.collects_run(), 2);

  auto ext = test::make_world(3);
  AfekSnapshot extended("S", *ext,
                        {.num_processes = 2,
                         .preamble_iterations = 2,
                         .iterate_update_scan = true});
  ext->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await extended.update(p, 5);
  });
  sim::FirstEnabledAdversary adv2;
  ASSERT_EQ(ext->run(adv2).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(ext->random_draws(), 1);
  EXPECT_EQ(extended.collects_run(), 4);
}

TEST(Snapshot, PreambleMappingScanOnlyByDefault) {
  auto w = test::make_world();
  AfekSnapshot snap("S", *w, {.num_processes = 2});
  const lin::PreambleMapping pi = snap.preamble_mapping();
  lin::Operation scan;
  scan.object_name = "S";
  scan.method = "Scan";
  lin::Operation up;
  up.object_name = "S";
  up.method = "Update";
  EXPECT_EQ(pi.line_for(scan), AfekSnapshot::kScanPreambleLine);
  EXPECT_EQ(pi.line_for(up), 0);
}

}  // namespace
}  // namespace blunt::objects
