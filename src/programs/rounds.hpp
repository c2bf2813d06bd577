// Round-based weakener (the Section 7 discussion): T communication-closed
// rounds, each an independent copy of Algorithm 1 over FRESH registers
// R[t], C[t]. Every process runs its per-round code for t = 1..T; the
// program makes s = 1 random step per round, r = T total.
//
// This is the structure the paper proposes for taming the r in Theorem 4.2:
// because rounds are communication-closed (round t's registers are never
// touched in other rounds), a per-round analysis applies with r_eff = s = 1
// instead of the global r = T, so the per-round bad-outcome probability obeys
// the k-vs-1 bound and the total obeys 1 − (1 − p_round)^T — far below the
// global worst-case bound for large T. `blunt_exp run k_tradeoff` prints both
// curves.
#pragma once

#include <memory>
#include <vector>

#include "objects/register_object.hpp"
#include "sim/world.hpp"

namespace blunt::programs {

struct RoundOutcome {
  sim::Value u1;
  sim::Value u2;
  sim::Value c;
  int coin = -1;

  [[nodiscard]] bool looped() const;
};

struct RoundsOutcome {
  std::vector<RoundOutcome> rounds;

  /// The program's bad outcome: some round trips its test.
  [[nodiscard]] bool any_looped() const;
  [[nodiscard]] int rounds_looped() const;
};

/// Registers the three processes; r_regs[t] / c_regs[t] are round t's
/// registers (fresh per round; c must be initialized to -1). Processes must
/// be the world's first three.
void install_round_weakener(
    sim::World& w,
    const std::vector<std::shared_ptr<objects::RegisterObject>>& r_regs,
    const std::vector<std::shared_ptr<objects::RegisterObject>>& c_regs,
    RoundsOutcome& out);

}  // namespace blunt::programs
