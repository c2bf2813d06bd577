#include "game/va_game.hpp"

#include <array>
#include <string>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 4;
constexpr int kCells = 3;
constexpr int kOps = 4;  // W0, W1, R1, R2

struct Pair {
  std::int32_t val = -2;  // -2 = ⊥
  std::int32_t num = 0;
  std::int32_t pid = 0;

  [[nodiscard]] bool ts_less(const Pair& o) const {
    return num != o.num ? num < o.num : pid < o.pid;
  }
};

enum Stage : std::int32_t {
  kCollect = 0,   // reading cells in order
  kChoosing = 1,  // object random step pending scheduling
  kTail = 2,      // write: the Val[pid] write; read: the return step
  kDone = 3,
};

struct OpState {
  std::int32_t stage = kCollect;
  std::int32_t iter = 0;   // current collect iteration
  std::int32_t cell = 0;   // next cell to read in this iteration
  Pair running;            // max so far in this iteration
  std::array<Pair, kMaxK> results{};
  Pair chosen;

  void canonicalize_done() {
    *this = OpState{};
    stage = kDone;
  }
};

struct State {
  std::array<Pair, kCells> val{};  // the Val registers
  std::array<OpState, kOps> op{};
  std::int32_t coin = -1;
  std::int32_t flip_pending = 0;
  std::int32_t choice_pending = -1;
  std::int32_t c_written = 0;
  std::int32_t cl = -3;
  std::int32_t u1 = -3;
  std::int32_t u2 = -3;
  std::int32_t pad = 0;
};

constexpr int kOpWriteValue[kOps] = {0, 1, -1, -1};
constexpr int kOpPid[kOps] = {0, 1, 2, 2};
const char* kOpName[kOps] = {"W0", "W1", "R1", "R2"};

bool op_is_read(int o) { return o >= 2; }

bool op_active(const State& st, int o) {
  if (st.op[static_cast<std::size_t>(o)].stage == kDone) return false;
  if (o == 3) return st.op[2].stage == kDone;  // R2 after R1 returns
  return true;
}

// `chosen` by value: may alias op.results, which is cleared.
void enter_tail(State& st, int o, Pair chosen) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.stage = kTail;
  op.results = {};
  op.iter = 0;
  op.cell = 0;
  op.running = {};
  op.chosen = chosen;
}

void finish_collect_iteration(State& st, int o, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.results[static_cast<std::size_t>(op.iter)] = op.running;
  ++op.iter;
  op.cell = 0;
  op.running = {};
  if (op.iter < k) return;
  if (k == 1) {
    enter_tail(st, o, op.results[0]);
  } else {
    op.stage = kChoosing;
  }
}

void finish_tail(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  if (op_is_read(o)) {
    const std::int32_t v = op.chosen.val;
    if (o == 2) st.u1 = v;
    if (o == 3) st.u2 = v;
  } else {
    // One atomic write of (value, (maxint + 1, pid)) to the own cell.
    Pair next{kOpWriteValue[o], op.chosen.num + 1, kOpPid[o]};
    Pair& cell = st.val[static_cast<std::size_t>(kOpPid[o])];
    // Single-writer per cell: the writer's stamps strictly grow, so the
    // write always lands.
    cell = next;
  }
  op.canonicalize_done();
}

}  // namespace

VaPhaseWeakenerGame::VaPhaseWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string_view VaPhaseWeakenerGame::initial() const {
  static const State kInitial{};
  return state_bytes(kInitial);
}

void VaPhaseWeakenerGame::expand(std::string_view encoded, Expansion& e) const {
  const State st = state_from_bytes<State>(encoded);

  if (st.flip_pending != 0) {
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      State nx = st;
      nx.flip_pending = 0;
      nx.coin = v;
      e.add(state_bytes(nx), [v] { return "coin=" + std::to_string(v); });
    }
    return;
  }
  if (st.choice_pending >= 0) {
    const int o = st.choice_pending;
    e.kind = Expansion::Kind::kChance;
    for (int j = 0; j < k_; ++j) {
      State nx = st;
      nx.choice_pending = -1;
      enter_tail(nx, o, st.op[static_cast<std::size_t>(o)]
                            .results[static_cast<std::size_t>(j)]);
      e.add(state_bytes(nx), [o, j] {
        return std::string(kOpName[o]) + " uses iteration " +
               std::to_string(j);
      });
    }
    return;
  }

  // Terminal shortcuts (same outcome structure as the ABD game).
  auto terminal = [&e](const Rational& v) {
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = v;
  };
  if (st.cl != -3) {
    const bool bad = (st.cl == 0 || st.cl == 1) && st.u1 == st.cl &&
                     st.u2 == 1 - st.cl;
    terminal(bad ? Rational(1) : Rational(0));
    return;
  }
  if (st.u1 == -2) {
    terminal(Rational(0));
    return;
  }
  if (st.u1 != -3 && st.u2 != -3) {
    if (!((st.u1 == 0 && st.u2 == 1) || (st.u1 == 1 && st.u2 == 0))) {
      terminal(Rational(0));
      return;
    }
    if (st.coin != -1) {
      terminal(st.u1 == st.coin ? Rational(1) : Rational(0));
      return;
    }
  }
  if (st.u1 != -3 && st.coin != -1 && st.u1 != st.coin) {
    terminal(Rational(0));
    return;
  }

  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    switch (op.stage) {
      case kCollect: {
        // Exactly one move: read the next cell in index order.
        State nx = st;
        OpState& nop = nx.op[static_cast<std::size_t>(o)];
        const Pair& cell = st.val[static_cast<std::size_t>(op.cell)];
        if (nop.running.ts_less(cell)) nop.running = cell;
        ++nop.cell;
        if (nop.cell == kCells) finish_collect_iteration(nx, o, k_);
        e.add(state_bytes(nx), [o, &op] {
          return std::string(kOpName[o]) + " reads Val[" +
                 std::to_string(op.cell) + "]";
        });
        break;
      }
      case kChoosing: {
        State nx = st;
        nx.choice_pending = o;
        e.add(state_bytes(nx), [o] {
          return std::string(kOpName[o]) + " draws its iteration choice";
        });
        break;
      }
      case kTail: {
        State nx = st;
        finish_tail(nx, o);
        e.add(state_bytes(nx), [o] {
          return std::string(kOpName[o]) +
                 (op_is_read(o) ? " returns" : " writes+returns");
        });
        break;
      }
      default:
        break;
    }
  }

  if (st.op[1].stage == kDone && st.coin == -1) {
    State nx = st;
    nx.flip_pending = 1;
    e.add(state_bytes(nx), [] { return "p1 flips the coin"; });
  }
  if (st.coin != -1 && st.c_written == 0) {
    State nx = st;
    nx.c_written = 1;
    e.add(state_bytes(nx), [] { return "p1: C := coin"; });
  }
  if (st.op[3].stage == kDone && st.cl == -3) {
    State nx = st;
    nx.cl = st.c_written != 0 ? st.coin : -1;
    e.add(state_bytes(nx), [] { return "p2: c := C"; });
  }

  BLUNT_ASSERT(!e.empty(),
               "VaPhaseWeakenerGame stuck (no moves, no terminal)");
}

}  // namespace blunt::game
