#include "game/weakener_game.hpp"

#include <array>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

// Register values: -2 = ⊥ (R's initial), -1 = C's initial, 0/1 written.
struct State {
  std::int8_t pc0 = 0;  // p0: 0 = to write R:=0, 1 = done
  std::int8_t pc1 = 0;  // p1: 0 = write R:=1, 1 = flip, 2 = write C, 3 done
  std::int8_t pc2 = 0;  // p2: 0 = read u1, 1 = read u2, 2 = read C, 3 done
  std::int8_t r = -2;   // register R
  std::int8_t c = -1;   // register C
  std::int8_t u1 = -3;  // p2 locals (-3 = unset)
  std::int8_t u2 = -3;
  std::int8_t cl = -3;
  std::int8_t coin = -3;     // p1's flip result
  std::int8_t flipping = 0;  // chance node marker

  [[nodiscard]] bool all_done() const {
    return pc0 == 1 && pc1 == 3 && pc2 == 3;
  }

  /// The bad outcome B: u1 = c ∧ u2 = 1 − c (p2 loops forever).
  [[nodiscard]] bool bad() const {
    return (cl == 0 || cl == 1) && u1 == cl && u2 == 1 - cl;
  }
};

}  // namespace

std::string_view AtomicWeakenerGame::initial() const {
  static const State kInitial{};
  return state_bytes(kInitial);
}

void AtomicWeakenerGame::expand(std::string_view encoded, Expansion& e) const {
  const State st = state_from_bytes<State>(encoded);

  if (st.flipping != 0) {
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      State nx = st;
      nx.flipping = 0;
      nx.coin = static_cast<std::int8_t>(v);
      nx.pc1 = 2;
      e.add(state_bytes(nx), [v] { return "coin=" + std::to_string(v); });
    }
    return;
  }

  if (st.all_done()) {
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = st.bad() ? Rational(1) : Rational(0);
    return;
  }

  e.kind = Expansion::Kind::kAdversary;
  auto push = [&e](const State& nx, const char* label) {
    e.add(state_bytes(nx), [label] { return label; });
  };

  if (st.pc0 == 0) {
    State nx = st;
    nx.r = 0;
    nx.pc0 = 1;
    push(nx, "p0: R:=0");
  }
  switch (st.pc1) {
    case 0: {
      State nx = st;
      nx.r = 1;
      nx.pc1 = 1;
      push(nx, "p1: R:=1");
      break;
    }
    case 1: {
      State nx = st;
      nx.flipping = 1;
      push(nx, "p1: flip");
      break;
    }
    case 2: {
      State nx = st;
      nx.c = st.coin;
      nx.pc1 = 3;
      push(nx, "p1: C:=coin");
      break;
    }
    default:
      break;
  }
  switch (st.pc2) {
    case 0: {
      State nx = st;
      nx.u1 = st.r;
      nx.pc2 = 1;
      push(nx, "p2: u1:=R");
      break;
    }
    case 1: {
      State nx = st;
      nx.u2 = st.r;
      nx.pc2 = 2;
      push(nx, "p2: u2:=R");
      break;
    }
    case 2: {
      State nx = st;
      nx.cl = st.c;
      nx.pc2 = 3;
      push(nx, "p2: c:=C");
      break;
    }
    default:
      break;
  }
  BLUNT_ASSERT(!e.empty(), "AtomicWeakenerGame: no moves but not all done");
}

namespace {

constexpr int kMaxRounds = 3;

// Per-process program counters index the round they are in plus an
// inner step; registers and locals are per round.
struct RoundsState {
  // p0: round index (a write of 0 per round), done when == rounds.
  std::int32_t pc0 = 0;
  // p1: round*3 + {0: write R, 1: flip, 2: write C}.
  std::int32_t pc1 = 0;
  // p2: round*3 + {0: read u1, 1: read u2, 2: read C}.
  std::int32_t pc2 = 0;
  std::array<std::int32_t, kMaxRounds> r{};     // R[t]; -2 = ⊥
  std::array<std::int32_t, kMaxRounds> c{};     // C[t]; -1 initial
  std::array<std::int32_t, kMaxRounds> u1{};    // -3 = unset
  std::array<std::int32_t, kMaxRounds> u2{};
  std::array<std::int32_t, kMaxRounds> cl{};
  std::array<std::int32_t, kMaxRounds> coin{};  // -3 = undrawn
  std::int32_t flipping = 0;

  RoundsState() {
    r.fill(-2);
    c.fill(-1);
    u1.fill(-3);
    u2.fill(-3);
    cl.fill(-3);
    coin.fill(-3);
  }

  [[nodiscard]] bool round_bad(int t) const {
    const auto ut = static_cast<std::size_t>(t);
    return (cl[ut] == 0 || cl[ut] == 1) && u1[ut] == cl[ut] &&
           u2[ut] == 1 - cl[ut];
  }
};

}  // namespace

AtomicRoundsWeakenerGame::AtomicRoundsWeakenerGame(int rounds)
    : rounds_(rounds) {
  BLUNT_ASSERT(rounds >= 1 && rounds <= kMaxRounds,
               "rounds must be in [1," << kMaxRounds << "]");
}

std::string_view AtomicRoundsWeakenerGame::initial() const {
  static const RoundsState kInitial{};
  return state_bytes(kInitial);
}

void AtomicRoundsWeakenerGame::expand(std::string_view encoded,
                                      Expansion& e) const {
  const RoundsState st = state_from_bytes<RoundsState>(encoded);

  if (st.flipping != 0) {
    const int t = st.pc1 / 3;
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      RoundsState nx = st;
      nx.flipping = 0;
      nx.coin[static_cast<std::size_t>(t)] = v;
      ++nx.pc1;
      e.add(state_bytes(nx), [t, v] {
        return "coin[" + std::to_string(t) + "]=" + std::to_string(v);
      });
    }
    return;
  }

  const bool done = st.pc0 == rounds_ && st.pc1 == 3 * rounds_ &&
                    st.pc2 == 3 * rounds_;
  if (done) {
    bool bad = false;
    for (int t = 0; t < rounds_; ++t) bad = bad || st.round_bad(t);
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = bad ? Rational(1) : Rational(0);
    return;
  }

  e.kind = Expansion::Kind::kAdversary;
  auto push = [&e](const RoundsState& nx, const char* label) {
    e.add(state_bytes(nx), [label] { return label; });
  };

  if (st.pc0 < rounds_) {
    RoundsState nx = st;
    nx.r[static_cast<std::size_t>(st.pc0)] = 0;
    ++nx.pc0;
    push(nx, "p0: R[t]:=0");
  }
  if (st.pc1 < 3 * rounds_) {
    const int t = st.pc1 / 3;
    const auto ut = static_cast<std::size_t>(t);
    RoundsState nx = st;
    switch (st.pc1 % 3) {
      case 0:
        nx.r[ut] = 1;
        ++nx.pc1;
        push(nx, "p1: R[t]:=1");
        break;
      case 1:
        nx.flipping = 1;
        push(nx, "p1: flip");
        break;
      case 2:
        nx.c[ut] = st.coin[ut];
        ++nx.pc1;
        push(nx, "p1: C[t]:=coin");
        break;
    }
  }
  if (st.pc2 < 3 * rounds_) {
    const int t = st.pc2 / 3;
    const auto ut = static_cast<std::size_t>(t);
    RoundsState nx = st;
    switch (st.pc2 % 3) {
      case 0:
        nx.u1[ut] = st.r[ut];
        break;
      case 1:
        nx.u2[ut] = st.r[ut];
        break;
      case 2:
        nx.cl[ut] = st.c[ut];
        break;
    }
    ++nx.pc2;
    push(nx, "p2 step");
  }
  BLUNT_ASSERT(!e.empty(), "rounds game stuck");
}

}  // namespace blunt::game
