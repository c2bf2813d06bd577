// Exact game model of the weakener (Algorithm 1) over Vitanyi–Awerbuch^k
// MWMR registers (Section 5.3) — a beyond-paper companion to the ABD game.
//
// Granularity: exactly the implementation's steps. Each operation's preamble
// is a collect — reads of Val[0], Val[1], Val[2] IN INDEX ORDER, one
// adversary-scheduled atomic step each — iterated k times with a uniform
// choice (Algorithm 2). A Write's tail is a single atomic write of
// (v, maxint+1, pid) to its own cell; a Read's tail is just its return (no
// shared step — VA reads do not write back). The C register is atomic, as in
// the ABD game (see that header for the argument).
//
// Interest: unlike ABD, the VA register gives the weakener's adversary NO
// advantage over atomic registers — the exact value is 1/2 for every k.
// Intuition: a pending Read's value becomes adversary-flexible only while
// its collect spans the coin flip, but W1's tail (the single write making
// value 1 visible in Val[1]) completes before the flip, so by read order the
// pending Read's relevant cells are already committed. Not every
// linearizable-but-not-strongly-linearizable object is exploitable by every
// program — the transformation's guarantee (Theorem 4.2) is what holds
// universally. `blunt_exp run vitanyi_il_blunting` prints the exact values.
#pragma once

#include "game/solver.hpp"

namespace blunt::game {

class VaPhaseWeakenerGame final : public GameModel {
 public:
  /// k = preamble iterations, 1 <= k <= 4.
  explicit VaPhaseWeakenerGame(int k);

  [[nodiscard]] std::string_view initial() const override;
  void expand(std::string_view state, Expansion& out) const override;

  [[nodiscard]] int k() const { return k_; }

 private:
  int k_;
};

}  // namespace blunt::game
