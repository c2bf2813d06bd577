// Tests for the exact snapshot-weakener game (Section 5.2's object).
#include "game/snapshot_game.hpp"

#include <gtest/gtest.h>

#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

TEST(SnapshotGame, ExactValueIsAtomicForEveryK) {
  // The Afek double-collect discipline denies the snapshot-weakener
  // adversary any gain over atomic snapshots: exact value 1/2 at every k.
  for (const int k : {1, 2, 3}) {
    EXPECT_EQ(solve(SnapshotWeakenerGame(k)), Rational(1, 2)) << "k=" << k;
  }
}

TEST(SnapshotGame, MatchesAtomicWeakenerValue) {
  EXPECT_EQ(solve(SnapshotWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(SnapshotGame, StateSpaceGrowsWithK) {
  const struct {
    int k;
    std::size_t states;
  } cases[] = {{1, 2688}, {2, 6487}, {3, 10524}};
  for (const auto& c : cases) {
    SolveStats stats;
    (void)solve(SnapshotWeakenerGame(c.k), &stats);
    EXPECT_EQ(stats.states_visited, c.states) << "k=" << c.k;
    EXPECT_EQ(stats.expansions, c.states) << "k=" << c.k;
  }
}

TEST(SnapshotGame, RejectsBadK) {
  EXPECT_DEATH(SnapshotWeakenerGame(0), "k must be");
  EXPECT_DEATH(SnapshotWeakenerGame(9), "k must be");
}

}  // namespace
}  // namespace blunt::game
