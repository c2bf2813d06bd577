// Tests for the exact game solver and the weakener game models — the
// quantitative reproduction of Appendix A.
#include "game/solver.hpp"

#include <gtest/gtest.h>

#include "game/abd_phase_game.hpp"
#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

// A tiny configurable game over one-letter states:
//   'r' -> adversary picks 'L' or 'R'; 'L' -> chance over 'a'/'b';
//   terminals carry fixed values.
class MiniGame final : public GameModel {
 public:
  std::string_view initial() const override { return "r"; }

  void expand(std::string_view s, Expansion& e) const override {
    if (s == "r") {
      e.kind = Expansion::Kind::kAdversary;
      e.add("L", [] { return "go-left"; });
      e.add("R", [] { return "go-right"; });
    } else if (s == "L") {
      e.kind = Expansion::Kind::kChance;
      e.add("a");
      e.add("b");
    } else if (s == "a") {
      e.terminal_value = Rational(1);
    } else if (s == "b") {
      e.terminal_value = Rational(0);
    } else {  // "R"
      e.terminal_value = Rational(1, 3);
    }
  }
};

TEST(Solver, MaxOverAdversaryAverageOverChance) {
  // Left: E = 1/2; Right: 1/3. Adversary prefers left.
  MiniGame g;
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1, 2));
  EXPECT_EQ(stats.states_visited, 5u);
  EXPECT_EQ(stats.expansions, 5u);
  EXPECT_EQ(stats.max_depth, 2);
}

TEST(Solver, StrategyExtractionFollowsArgmax) {
  MiniGame g;
  std::vector<StrategyEdge> strategy;
  EXPECT_EQ(solve(g, nullptr, &strategy), Rational(1, 2));
  ASSERT_EQ(strategy.size(), 2u);
  EXPECT_EQ(strategy[0].label, "go-left");
  EXPECT_EQ(strategy[0].value, Rational(1, 2));
  EXPECT_EQ(strategy[1].label, "coin");  // an unlabelled chance outcome
  EXPECT_TRUE(strategy[1].chance);
  EXPECT_EQ(strategy[1].value, Rational(1));
}

// A -> B -> A: a model that forgot to make progress.
class CyclicGame final : public GameModel {
 public:
  std::string_view initial() const override { return "A"; }

  void expand(std::string_view s, Expansion& e) const override {
    e.kind = Expansion::Kind::kAdversary;
    e.add(s == "A" ? "B" : "A");
  }
};

TEST(Solver, CyclicModelFailsCleanly) {
  EXPECT_DEATH((void)solve(CyclicGame{}),
               "cyclic game: the state at depth 2 repeats the one at depth 0 "
               "while its value is pending: A -> B -> A");
}

// States of one model must share one width.
class RaggedGame final : public GameModel {
 public:
  std::string_view initial() const override { return "root"; }

  void expand(std::string_view s, Expansion& e) const override {
    if (s == "root") {
      e.kind = Expansion::Kind::kAdversary;
      e.add("leaf");
      e.add("longer");
    }
  }
};

TEST(Solver, StatesOfDifferentWidthsAreRejected) {
  EXPECT_DEATH((void)solve(RaggedGame{}), "differ in width");
}

// Adversary AFTER the coin can match it; BEFORE it cannot. This is the
// information structure that makes strong adversaries strong. States are
// six characters wide: "flip__", "guess_", "seen<c>_", "g<g>____" and the
// terminals "win<c>g<g>".
class GuessGame final : public GameModel {
 public:
  explicit GuessGame(bool adversary_sees_coin) : sees_(adversary_sees_coin) {}

  std::string_view initial() const override {
    return sees_ ? "flip__" : "guess_";
  }

  void expand(std::string_view s, Expansion& e) const override {
    if (s == "flip__") {  // coin first, then guess with knowledge
      e.kind = Expansion::Kind::kChance;
      e.add("seen0_");
      e.add("seen1_");
    } else if (s == "guess_") {  // guess first (encoded), then coin
      e.kind = Expansion::Kind::kAdversary;
      e.add("g0____");
      e.add("g1____");
    } else if (s.starts_with("seen")) {
      e.kind = Expansion::Kind::kAdversary;
      // Guess either value; win iff it matches the seen coin.
      const std::string coin(1, s[4]);
      e.add("win" + coin + "g0");
      e.add("win" + coin + "g1");
    } else if (s[0] == 'g') {
      e.kind = Expansion::Kind::kChance;
      const std::string guess(1, s[1]);
      e.add("win0g" + guess);
      e.add("win1g" + guess);
    } else {  // "win<coin>g<guess>"
      e.terminal_value = (s[3] == s[5]) ? Rational(1) : Rational(0);
    }
  }

 private:
  bool sees_;
};

TEST(Solver, InformationOrderMatters) {
  EXPECT_EQ(solve(GuessGame(/*adversary_sees_coin=*/true)), Rational(1));
  EXPECT_EQ(solve(GuessGame(/*adversary_sees_coin=*/false)), Rational(1, 2));
}

TEST(AtomicWeakener, ExactValueIsOneHalf) {
  // Appendix A.1: with atomic registers the strong adversary makes p2 loop
  // with probability exactly 1/2 — no more.
  AtomicWeakenerGame g;
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1, 2));
  EXPECT_EQ(stats.states_visited, 289u);
  EXPECT_EQ(stats.expansions, 289u);
}

TEST(AbdPhase, OriginalAbdLosesAlways) {
  // Appendix A.2: with plain ABD (k = 1) the adversary forces the bad
  // outcome with probability 1.
  AbdPhaseWeakenerGame g(1);
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1));
  EXPECT_EQ(stats.states_visited, 155311u);
  EXPECT_EQ(stats.expansions, 155311u);
}

TEST(AbdPhase, Abd2ValueIsExactlyFiveEighths) {
  // Appendix A.3.2 proves the adversary wins at most 5/8 against ABD²
  // (termination >= 3/8). The exact game value shows that bound is TIGHT.
  AbdPhaseWeakenerGame g(2);
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(5, 8));
  EXPECT_EQ(stats.states_visited, 598306u);
  EXPECT_EQ(stats.expansions, 598306u);
}

TEST(AbdPhase, Abd3ValueIsFiveNinths) {
  // The beyond-paper closed form 1/2 + 1/(2k^2) at k = 3.
  AbdPhaseWeakenerGame g(3);
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(5, 9));
  EXPECT_EQ(stats.states_visited, 1914598u);
  EXPECT_EQ(stats.expansions, 1914598u);
}

TEST(AbdPhase, StrategyExtractionReachesTheCoin) {
  AbdPhaseWeakenerGame g(1);
  std::vector<StrategyEdge> strategy;
  (void)solve(g, nullptr, &strategy, 400);
  bool flipped = false;
  for (const auto& e : strategy) {
    if (e.label.find("coin") != std::string::npos) flipped = true;
  }
  EXPECT_TRUE(flipped);
}

TEST(AbdPhase, Abd2StrategyLabelsArePinned) {
  // The first 18 edges of the extracted ABD^2 line of play, as recorded
  // before labels became lazy and the state narrowed to int8 fields (a
  // label printing an int8_t through a stream would show a character).
  const char* const kLabels[] = {
      "W0 query reply from n0",
      "W0 query reply from n1",
      "W1 query reply from n0",
      "W1 query reply from n1",
      "W1 query reply from n2",
      "W1 query phase 0 -> (v=-2,ts=(0,0))",
      "W1 query reply from n0",
      "W1 query reply from n1",
      "W1 query reply from n2",
      "W1 query phase 1 -> (v=-2,ts=(0,0))",
      "W1 draws its iteration choice",
      "W1 uses iteration 0",
      "W1 update at n0",
      "R1 query reply from n0",
      "R1 query reply from n1",
      "W1 update at n1",
      "W1 returns",
      "p1 flips the coin",
  };
  std::vector<StrategyEdge> strategy;
  (void)solve(AbdPhaseWeakenerGame(2), nullptr, &strategy, 18);
  ASSERT_EQ(strategy.size(), std::size(kLabels));
  for (std::size_t i = 0; i < strategy.size(); ++i) {
    EXPECT_EQ(strategy[i].label, kLabels[i]) << "edge " << i + 1;
    EXPECT_EQ(strategy[i].value, Rational(5, 8)) << "edge " << i + 1;
  }
}

TEST(AtomicRounds, ValueIsOneMinusHalfPowT) {
  // The T-round weakener over atomic registers (Section 7's round-based
  // structure): the adversary's optimum is exactly 1 - (1/2)^T — per-round
  // coin matches are independent and drifting rounds add nothing.
  const struct {
    int rounds;
    Rational value;
    std::size_t states;
  } cases[] = {{1, Rational(1, 2), 289},
               {2, Rational(3, 4), 16438},
               {3, Rational(7, 8), 808438}};
  for (const auto& c : cases) {
    SolveStats stats;
    EXPECT_EQ(solve(AtomicRoundsWeakenerGame(c.rounds), &stats), c.value)
        << "T=" << c.rounds;
    EXPECT_EQ(stats.states_visited, c.states) << "T=" << c.rounds;
    EXPECT_EQ(stats.expansions, c.states) << "T=" << c.rounds;
  }
}

TEST(AtomicRounds, SingleRoundMatchesTheBaseGame) {
  EXPECT_EQ(solve(AtomicRoundsWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(AtomicRounds, RejectsBadRoundCounts) {
  EXPECT_DEATH(AtomicRoundsWeakenerGame(0), "rounds must be");
  EXPECT_DEATH(AtomicRoundsWeakenerGame(5), "rounds must be");
}

TEST(AbdPhase, RejectsBadK) {
  EXPECT_DEATH(AbdPhaseWeakenerGame(0), "k must be");
  EXPECT_DEATH(AbdPhaseWeakenerGame(9), "k must be");
}

TEST(AbdPhase, StateIsFiftyEightBytes) {
  // One byte per (val, num, pid) pair: 3 replicas, 4 ops of 12 bytes and 7
  // bytes of program state, whatever k. The memo keys every state by these
  // bytes.
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(AbdPhaseWeakenerGame(k).initial().size(), 58u) << "k=" << k;
  }
}

}  // namespace
}  // namespace blunt::game
