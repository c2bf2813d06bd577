// Exact game model of Algorithm 1 (the weakener) over ATOMIC registers — the
// Appendix A.1 baseline.
//
// Every register operation is one indivisible adversary-scheduled step; p1's
// coin flip is a chance node. Solving the game yields
// Prob[P(O_a) → B] = 1/2 exactly: the strong adversary wins only by matching
// the coin against a read/write pattern it must half-commit before the flip
// (p1's write of R completes before the flip by program order).
#pragma once

#include "game/solver.hpp"

namespace blunt::game {

class AtomicWeakenerGame final : public GameModel {
 public:
  [[nodiscard]] std::string_view initial() const override;
  void expand(std::string_view state, Expansion& out) const override;
};

/// The T-round weakener over atomic registers (programs/rounds.hpp): T
/// communication-closed copies of Algorithm 1 over fresh registers; the bad
/// outcome is ANY round tripping its test. The exact value is
/// 1 − (1/2)^T — per-round wins are independent optimal coin-matches, and
/// drifting rounds give the adversary nothing extra — which validates the
/// Section 7 per-round composition exactly (in the atomic case).
class AtomicRoundsWeakenerGame final : public GameModel {
 public:
  /// 1 <= rounds <= 3 (state size).
  explicit AtomicRoundsWeakenerGame(int rounds);

  [[nodiscard]] std::string_view initial() const override;
  void expand(std::string_view state, Expansion& out) const override;

 private:
  int rounds_;
};

}  // namespace blunt::game
