#include "game/abd_phase_game.hpp"

#include <array>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 4;
constexpr int kNodes = 3;
constexpr int kQuorum = 2;
constexpr int kOps = 4;  // W0, W1, R1, R2

// A replica's (value, timestamp) pair in one byte, value -2 = ⊥: bits 0-1
// hold val + 2, bits 2-3 pid and bits 4-6 num. With num above pid,
// timestamp order is the order of bits >> 2. Byte fields keep State
// trivially copyable with no padding, so the canonical encoding is its bytes.
struct Pair {
  std::uint8_t bits = 0;  // ⊥ at timestamp (0, 0)

  static constexpr int kNumLimit = 1 << 3;  // num takes 3 bits

  [[nodiscard]] static Pair make(int val, int num, int pid) {
    return {static_cast<std::uint8_t>((num << 4) | (pid << 2) | (val + 2))};
  }
  [[nodiscard]] int val() const { return (bits & 3) - 2; }
  [[nodiscard]] int pid() const { return (bits >> 2) & 3; }
  [[nodiscard]] int num() const { return bits >> 4; }

  [[nodiscard]] bool ts_less(const Pair& o) const {
    return (bits >> 2) < (o.bits >> 2);
  }
  [[nodiscard]] bool ts_leq(const Pair& o) const {
    return (bits >> 2) <= (o.bits >> 2);
  }
  friend bool operator==(const Pair&, const Pair&) = default;
};

enum Stage : std::int8_t { kQuery = 0, kChoosing = 1, kUpdate = 2, kDone = 3 };

struct OpState {
  std::int8_t stage = kQuery;
  std::int8_t iter = 0;                 // current query iteration
  std::int8_t replied = 0;              // nodes that replied in this phase
  std::int8_t processed = 0;            // nodes that processed the update
  std::array<Pair, kNodes> reply{};     // captured replies (where bit set)
  std::array<Pair, kMaxK> results{};    // finished iteration results
  Pair upd;                             // update payload

  /// Canonical form for merged memoization: dead fields zeroed.
  void clear_query_bookkeeping() {
    replied = 0;
    reply = {};
  }
  void canonicalize_done() {
    *this = OpState{};
    stage = kDone;
  }
};

struct State {
  std::array<Pair, kNodes> node{};  // replica (val, ts)
  std::array<OpState, kOps> op{};
  std::int8_t coin = -1;            // -1 = undrawn
  std::int8_t flip_pending = 0;
  std::int8_t choice_pending = -1;  // op whose object random step is firing
  std::int8_t c_written = 0;        // p1 wrote C
  std::int8_t cl = -3;              // p2's read of C (-3 unset, -1 initial)
  std::int8_t u1 = -3;              // R1 result (-3 unset; -2 ⊥)
  std::int8_t u2 = -3;
};

static_assert(sizeof(Pair) == 1);
static_assert(sizeof(OpState) == 4 + kNodes + kMaxK + 1);
static_assert(sizeof(State) == kNodes + kOps * (4 + kNodes + kMaxK + 1) + 7);

// Value each write op installs; reads install their chosen pair.
constexpr std::int8_t kOpWriteValue[kOps] = {0, 1, -1, -1};
constexpr std::int8_t kOpPid[kOps] = {0, 1, 2, 2};
const char* kOpName[kOps] = {"W0", "W1", "R1", "R2"};

bool op_is_read(int o) { return o >= 2; }

// Is op `o` active (its client code is running) in `st`?
bool op_active(const State& st, int o) {
  if (st.op[static_cast<std::size_t>(o)].stage == kDone) return false;
  if (o == 3) return st.op[2].stage == kDone;  // R2 after R1
  return true;
}

// After a query result is fully chosen, enter the update stage. `chosen` is
// taken by value: it may alias op.results, which is cleared here.
void enter_update(State& st, int o, Pair chosen) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.stage = kUpdate;
  op.results = {};  // no longer needed: canonicalize
  op.iter = 0;
  if (op_is_read(o)) {
    op.upd = chosen;  // write-back
  } else {
    BLUNT_ASSERT(chosen.num() + 1 < Pair::kNumLimit,
                 "AbdPhaseWeakenerGame timestamp num "
                     << chosen.num() + 1 << " overflows its 3 bits (limit "
                     << Pair::kNumLimit - 1 << ")");
    op.upd = Pair::make(kOpWriteValue[o], chosen.num() + 1, kOpPid[o]);
  }
}

// Finish a query iteration with result `res`; advance to the next phase, the
// choice chance node, or directly to update (k == 1).
void finish_query(State& st, int o, const Pair& res, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.results[static_cast<std::size_t>(op.iter)] = res;
  ++op.iter;
  op.clear_query_bookkeeping();
  if (op.iter < k) return;  // next query phase
  if (k == 1) {
    enter_update(st, o, op.results[0]);
  } else {
    op.stage = kChoosing;
  }
}

void finish_update(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  const auto v = static_cast<std::int8_t>(op.upd.val());
  op.canonicalize_done();
  if (o == 2) st.u1 = v;
  if (o == 3) st.u2 = v;
}

std::string op_label(int o, const char* what) {
  return std::string(kOpName[o]) + what;
}

}  // namespace

AbdPhaseWeakenerGame::AbdPhaseWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string_view AbdPhaseWeakenerGame::initial() const {
  static const State kInitial{};
  return state_bytes(kInitial);
}

void AbdPhaseWeakenerGame::expand(std::string_view encoded,
                                  Expansion& e) const {
  const State st = state_from_bytes<State>(encoded);

  // -- Chance nodes --
  if (st.flip_pending != 0) {
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      State nx = st;
      nx.flip_pending = 0;
      nx.coin = static_cast<std::int8_t>(v);
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
      enter_update(nx, o, st.op[static_cast<std::size_t>(o)]
                              .results[static_cast<std::size_t>(j)]);
      e.add(state_bytes(nx), [o, j] {
        return op_label(o, " uses iteration ") + std::to_string(j);
      });
    }
    return;
  }

  // -- Terminal shortcuts: the outcome set B is u1 = c ∧ u2 = 1 − c with the
  // coin relayed intact through C; once enough locals are fixed the value is
  // decided (for a win the adversary must and always can relay the coin).
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
  if (st.u1 == -2) {  // u1 = ⊥ can never match the coin
    terminal(Rational(0));
    return;
  }
  if (st.u1 != -3 && st.u2 != -3) {
    if (!((st.u1 == 0 && st.u2 == 1) || (st.u1 == 1 && st.u2 == 0))) {
      terminal(Rational(0));
      return;
    }
    if (st.coin != -1) {
      // Both reads fixed, coin known: adversary wins iff u1 == coin (it
      // relays the coin through C; otherwise it loses regardless).
      terminal(st.u1 == st.coin ? Rational(1) : Rational(0));
      return;
    }
  }
  if (st.u1 != -3 && st.coin != -1 && st.u1 != st.coin) {
    terminal(Rational(0));
    return;
  }

  // -- Adversary moves --
  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    const auto uo = static_cast<std::size_t>(o);
    switch (op.stage) {
      case kQuery: {
        // Capture replies (a replica answers the query with its current
        // state; delivery timing is folded into the later finish move).
        for (int n = 0; n < kNodes; ++n) {
          if (op.replied & (1 << n)) continue;
          State nx = st;
          OpState& nop = nx.op[uo];
          nop.replied = static_cast<std::int8_t>(nop.replied | (1 << n));
          nop.reply[static_cast<std::size_t>(n)] =
              st.node[static_cast<std::size_t>(n)];
          e.add(state_bytes(nx), [o, n] {
            return op_label(o, " query reply from n") + std::to_string(n);
          });
        }
        // Finish the phase with any achievable max: a captured pair p such
        // that at least kQuorum captured replies have ts <= ts(p).
        std::array<Pair, kNodes> seen{};
        int nseen = 0;
        for (int n = 0; n < kNodes; ++n) {
          if (!(op.replied & (1 << n))) continue;
          const Pair& p = op.reply[static_cast<std::size_t>(n)];
          bool dup = false;
          for (int q = 0; q < nseen; ++q) {
            dup = dup || seen[static_cast<std::size_t>(q)] == p;
          }
          if (dup) continue;
          seen[static_cast<std::size_t>(nseen++)] = p;
          int dominated = 0;
          for (int m = 0; m < kNodes; ++m) {
            if (!(op.replied & (1 << m))) continue;
            if (op.reply[static_cast<std::size_t>(m)].ts_leq(p)) ++dominated;
          }
          if (dominated >= kQuorum) {
            State nx = st;
            finish_query(nx, o, p, k_);
            e.add(state_bytes(nx), [o, &op, p] {
              return op_label(o, " query phase ") + std::to_string(op.iter) +
                     " -> (v=" + std::to_string(p.val()) + ",ts=(" +
                     std::to_string(p.num()) + ',' + std::to_string(p.pid()) +
                     "))";
            });
          }
        }
        break;
      }
      case kChoosing: {
        State nx = st;
        nx.choice_pending = static_cast<std::int8_t>(o);
        e.add(state_bytes(nx),
              [o] { return op_label(o, " draws its iteration choice"); });
        break;
      }
      case kUpdate: {
        for (int n = 0; n < kNodes; ++n) {
          if (op.processed & (1 << n)) continue;
          State nx = st;
          OpState& nop = nx.op[uo];
          nop.processed = static_cast<std::int8_t>(nop.processed | (1 << n));
          Pair& cell = nx.node[static_cast<std::size_t>(n)];
          if (cell.ts_less(op.upd)) cell = op.upd;
          e.add(state_bytes(nx), [o, n] {
            return op_label(o, " update at n") + std::to_string(n);
          });
        }
        // Acks counted bit by bit: std::popcount is a libgcc call in a
        // build without -mpopcnt.
        static_assert(kNodes == 3);
        const int acks = (op.processed & 1) + ((op.processed >> 1) & 1) +
                         ((op.processed >> 2) & 1);
        if (acks >= kQuorum) {
          State nx = st;
          finish_update(nx, o);
          e.add(state_bytes(nx), [o] { return op_label(o, " returns"); });
        }
        break;
      }
      default:
        break;
    }
  }

  // Program steps of p1 (coin, then C := coin) and p2 (read C after R2).
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
    nx.cl = st.c_written != 0 ? st.coin : std::int8_t{-1};
    e.add(state_bytes(nx), [] { return "p2: c := C"; });
  }

  BLUNT_ASSERT(!e.empty(),
               "AbdPhaseWeakenerGame stuck (no moves, no terminal)");
}

}  // namespace blunt::game
