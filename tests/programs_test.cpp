// Tests for the auxiliary programs: the round-based weakener (Section 7) and
// the snapshot weakener.
#include "programs/rounds.hpp"
#include "programs/snapshot_weakener.hpp"

#include <gtest/gtest.h>

#include "objects/abd.hpp"
#include "objects/atomic.hpp"
#include "objects/snapshot.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::programs {
namespace {

TEST(RoundOutcome, LoopPredicate) {
  RoundOutcome r;
  r.u1 = sim::Value(std::int64_t{1});
  r.u2 = sim::Value(std::int64_t{0});
  r.c = sim::Value(std::int64_t{1});
  EXPECT_TRUE(r.looped());
  r.c = sim::Value(std::int64_t{0});
  EXPECT_FALSE(r.looped());
  r.c = sim::Value{};
  EXPECT_FALSE(r.looped());
}

TEST(RoundsOutcome, Aggregation) {
  RoundsOutcome out;
  out.rounds.resize(3);
  EXPECT_FALSE(out.any_looped());
  out.rounds[1].u1 = sim::Value(std::int64_t{0});
  out.rounds[1].u2 = sim::Value(std::int64_t{1});
  out.rounds[1].c = sim::Value(std::int64_t{0});
  EXPECT_TRUE(out.any_looped());
  EXPECT_EQ(out.rounds_looped(), 1);
}

TEST(Rounds, CompletesOverAtomicRegisters) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto w = test::make_world(seed);
    std::vector<std::shared_ptr<objects::RegisterObject>> rs, cs;
    for (int t = 0; t < 3; ++t) {
      rs.push_back(std::make_shared<objects::AtomicRegister>(
          std::string("R").append(std::to_string(t)), *w, sim::Value{}));
      cs.push_back(std::make_shared<objects::AtomicRegister>(
          std::string("C").append(std::to_string(t)), *w,
          sim::Value(std::int64_t{-1})));
    }
    RoundsOutcome out;
    install_round_weakener(*w, rs, cs, out);
    sim::UniformAdversary adv(seed + 3);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    ASSERT_EQ(out.rounds.size(), 3u);
    for (const RoundOutcome& r : out.rounds) {
      EXPECT_GE(r.coin, 0);
      EXPECT_LE(r.coin, 1);
    }
    // The program made exactly one random step per round.
    EXPECT_EQ(w->random_draws(), 3);
  }
}

TEST(Rounds, CompletesOverAbdK) {
  auto w = test::make_world(5, /*max_steps=*/400000);
  std::vector<std::shared_ptr<objects::RegisterObject>> rs, cs;
  for (int t = 0; t < 2; ++t) {
    rs.push_back(std::make_shared<objects::AbdRegister>(
        std::string("R").append(std::to_string(t)), *w,
        objects::AbdRegister::Options{.num_processes = 3,
                                      .preamble_iterations = 2}));
    cs.push_back(std::make_shared<objects::AbdRegister>(
        std::string("C").append(std::to_string(t)), *w,
        objects::AbdRegister::Options{
            .num_processes = 3,
            .initial = sim::Value(std::int64_t{-1}),
            .preamble_iterations = 2}));
  }
  RoundsOutcome out;
  install_round_weakener(*w, rs, cs, out);
  sim::UniformAdversary adv(9);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  // 2 program random steps; each of the 12 operations (3 processes x 2
  // rounds x 2 ops... precisely: p0 2 writes, p1 4 ops, p2 6 ops = 12 ops)
  // draws one object random step (k = 2).
  EXPECT_EQ(w->random_draws(), 2 + 12);
}

TEST(Rounds, RejectsMismatchedRegisterVectors) {
  auto w = test::make_world();
  std::vector<std::shared_ptr<objects::RegisterObject>> rs = {
      std::make_shared<objects::AtomicRegister>("R0", *w, sim::Value{})};
  std::vector<std::shared_ptr<objects::RegisterObject>> cs;
  RoundsOutcome out;
  EXPECT_DEATH(install_round_weakener(*w, rs, cs, out),
               "one \\(R, C\\) pair per round");
}

TEST(ClassifyView, AllClasses) {
  EXPECT_EQ(classify_view({0, 0}), ViewClass::kNone);
  EXPECT_EQ(classify_view({1, 0}), ViewClass::kOnly0);
  EXPECT_EQ(classify_view({0, 1}), ViewClass::kOnly1);
  EXPECT_EQ(classify_view({1, 1, 7}), ViewClass::kBoth);
}

TEST(SnapshotWeakenerOutcome, BadPredicate) {
  SnapshotWeakenerOutcome o;
  o.v1 = {0, 1, 0};
  o.v2 = {1, 1, 0};
  o.c = sim::Value(std::int64_t{1});
  EXPECT_TRUE(o.bad());
  o.c = sim::Value(std::int64_t{0});
  EXPECT_FALSE(o.bad());
  o.v1 = {1, 0, 0};
  EXPECT_TRUE(o.bad());
  o.v2 = {1, 0, 0};
  EXPECT_FALSE(o.bad());  // v2 must show both
  o.v2.clear();
  EXPECT_FALSE(o.bad());
}

TEST(SnapshotWeakener, CompletesOverAfekSnapshot) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto w = test::make_world(seed);
    objects::AfekSnapshot snap("S", *w, {.num_processes = 3});
    objects::AtomicRegister c("C", *w, sim::Value(std::int64_t{-1}));
    SnapshotWeakenerOutcome out;
    install_snapshot_weakener(*w, snap, c, out);
    sim::UniformAdversary adv(seed * 3 + 2);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_TRUE(out.p2_done);
    ASSERT_EQ(out.v1.size(), 3u);
    ASSERT_EQ(out.v2.size(), 3u);
    // Scans of the same process are monotone: v2's set of written segments
    // contains v1's.
    for (int i = 0; i < 2; ++i) {
      if (out.v1[static_cast<std::size_t>(i)] != 0) {
        EXPECT_NE(out.v2[static_cast<std::size_t>(i)], 0)
            << "seed=" << seed << " segment " << i << " regressed";
      }
    }
  }
}

}  // namespace
}  // namespace blunt::programs
