// Tests for the Vitanyi–Awerbuch weakener game: exact values and structure.
#include "game/va_game.hpp"

#include <gtest/gtest.h>

#include "game/abd_phase_game.hpp"
#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

TEST(VaPhase, ExactValueIsAtomicForEveryK) {
  // Beyond-paper: the weakener gains nothing against VA — the exact optimal
  // adversary value equals the atomic 1/2 for every k. (A VA write's tail is
  // a single atomic step, so the adversary cannot split its visibility
  // across replicas after observing the coin, unlike ABD's update phase.)
  for (const int k : {1, 2, 3}) {
    EXPECT_EQ(solve(VaPhaseWeakenerGame(k)), Rational(1, 2)) << "k=" << k;
  }
}

TEST(VaPhase, MatchesAtomicGameValue) {
  EXPECT_EQ(solve(VaPhaseWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(VaPhase, StrictlyBelowAbdAtEveryK) {
  // The same program over ABD^k is strictly worse: object choice matters.
  for (const int k : {1, 2, 3}) {
    EXPECT_LT(solve(VaPhaseWeakenerGame(k)),
              solve(AbdPhaseWeakenerGame(k)))
        << "k=" << k;
  }
}

TEST(VaPhase, StateSpaceIsSmall) {
  const struct {
    int k;
    std::size_t states;
  } cases[] = {{1, 940}, {2, 5421}, {3, 12692}};
  for (const auto& c : cases) {
    SolveStats stats;
    (void)solve(VaPhaseWeakenerGame(c.k), &stats);
    EXPECT_EQ(stats.states_visited, c.states) << "k=" << c.k;
    EXPECT_EQ(stats.expansions, c.states) << "k=" << c.k;
  }
}

TEST(VaPhase, RejectsBadK) {
  EXPECT_DEATH(VaPhaseWeakenerGame(0), "k must be");
  EXPECT_DEATH(VaPhaseWeakenerGame(7), "k must be");
}

}  // namespace
}  // namespace blunt::game
