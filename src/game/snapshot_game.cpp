#include "game/snapshot_game.hpp"

#include <array>
#include <string>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 3;
constexpr int kCells = 3;
constexpr int kOps = 4;  // U0, U1, S1, S2

struct Cell {
  std::int32_t value = 0;
  std::int32_t seq = 0;
};

enum Stage : std::int32_t {
  kScanning = 0,  // in the (embedded or top-level) scan loop
  kChoosing = 1,  // scans only: object random step pending
  kWrite = 2,     // updates only: the single cell write
  kReturn = 3,    // scans only: the return step
  kDone = 4,
};

// One view = the three segment values; classification as in
// programs/snapshot_weakener (only segments 0 and 1 matter).
struct View {
  std::array<std::int32_t, kCells> v{};
};

// 0 = none, 1 = only0, 2 = only1, 3 = both.
std::int32_t classify(const View& view) {
  const bool s0 = view.v[0] != 0;
  const bool s1 = view.v[1] != 0;
  if (s0 && s1) return 3;
  if (s0) return 1;
  if (s1) return 2;
  return 0;
}

struct ScanLoop {
  std::int32_t have_first = 0;
  std::int32_t idx = 0;  // next cell to read in the current collect
  std::array<Cell, kCells> first{};
  std::array<Cell, kCells> partial{};

  void reset() { *this = ScanLoop{}; }
};

struct OpState {
  std::int32_t stage = kScanning;
  std::int32_t iter = 0;  // scan-loop iteration (for Scan^k)
  ScanLoop loop;
  std::array<View, kMaxK> results{};
  View chosen;  // scans: view to return; updates: embedded scan result

  void canonicalize_done() {
    *this = OpState{};
    stage = kDone;
  }
};

struct State {
  std::array<Cell, kCells> cell{};
  std::array<OpState, kOps> op{};
  std::int32_t coin = -1;
  std::int32_t flip_pending = 0;
  std::int32_t choice_pending = -1;
  std::int32_t c_written = 0;
  std::int32_t cl = -3;
  std::int32_t v1_class = -1;  // classify(v1), -1 = S1 not returned
  std::int32_t v2_class = -1;
  std::int32_t pad = 0;
};

constexpr int kOpPid[kOps] = {0, 1, 2, 2};
const char* kOpName[kOps] = {"U0", "U1", "S1", "S2"};

bool op_is_scan(int o) { return o >= 2; }

bool op_active(const State& st, int o) {
  if (st.op[static_cast<std::size_t>(o)].stage == kDone) return false;
  if (o == 3) return st.op[2].stage == kDone;  // S2 after S1 returns
  return true;
}

// The scan loop finished one collect; decide: return a view, or loop.
// Returns true (and sets *out) if the double collect succeeded.
bool evaluate_collect(OpState& op, View* out) {
  if (op.loop.have_first == 0) {
    op.loop.first = op.loop.partial;
    op.loop.have_first = 1;
    op.loop.idx = 0;
    op.loop.partial = {};
    return false;
  }
  bool identical = true;
  for (int i = 0; i < kCells; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (op.loop.partial[ui].seq != op.loop.first[ui].seq) identical = false;
  }
  if (identical) {
    for (int i = 0; i < kCells; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      out->v[ui] = op.loop.partial[ui].value;
    }
    return true;
  }
  // Processes update at most once in this program, so "moved twice" (the
  // borrowed-view return) is unreachable; retry with the new collect as
  // `first`.
  op.loop.first = op.loop.partial;
  op.loop.idx = 0;
  op.loop.partial = {};
  return false;
}

// A scan-loop iteration produced `view`; advance the op.
void finish_scan_loop(State& st, int o, const View& view, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.loop.reset();
  if (!op_is_scan(o)) {
    // Update: the embedded scan ran once; go write.
    op.chosen = view;
    op.stage = kWrite;
    return;
  }
  op.results[static_cast<std::size_t>(op.iter)] = view;
  ++op.iter;
  if (op.iter < k) return;  // next iteration
  if (k == 1) {
    op.chosen = op.results[0];
    op.results = {};
    op.iter = 0;
    op.stage = kReturn;
  } else {
    op.stage = kChoosing;
  }
}

void finish_return(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  const std::int32_t cls = classify(op.chosen);
  op.canonicalize_done();
  if (o == 2) st.v1_class = cls;
  if (o == 3) st.v2_class = cls;
}

}  // namespace

SnapshotWeakenerGame::SnapshotWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string_view SnapshotWeakenerGame::initial() const {
  static const State kInitial{};
  return state_bytes(kInitial);
}

void SnapshotWeakenerGame::expand(std::string_view encoded,
                                  Expansion& e) const {
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
      OpState& op = nx.op[static_cast<std::size_t>(o)];
      op.chosen = op.results[static_cast<std::size_t>(j)];
      op.results = {};
      op.iter = 0;
      op.stage = kReturn;
      e.add(state_bytes(nx), [o, j] {
        return std::string(kOpName[o]) + " uses iteration " +
               std::to_string(j);
      });
    }
    return;
  }

  auto terminal = [&e](const Rational& v) {
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = v;
  };
  // bad: v1_class == only_cc and v2_class == both with cc = coin relayed.
  if (st.cl != -3) {
    const bool bad = (st.cl == 0 || st.cl == 1) &&
                     st.v1_class == (st.cl == 0 ? 1 : 2) &&
                     st.v2_class == 3;
    terminal(bad ? Rational(1) : Rational(0));
    return;
  }
  if (st.v1_class == 0 || st.v1_class == 3) {  // none/both can't match a coin
    terminal(Rational(0));
    return;
  }
  if (st.v1_class != -1 && st.v2_class != -1) {
    if (st.v2_class != 3) {
      terminal(Rational(0));
      return;
    }
    if (st.coin != -1) {
      const bool can_win = st.v1_class == (st.coin == 0 ? 1 : 2);
      terminal(can_win ? Rational(1) : Rational(0));
      return;
    }
  }
  if (st.v1_class != -1 && st.coin != -1 &&
      st.v1_class != (st.coin == 0 ? 1 : 2)) {
    terminal(Rational(0));
    return;
  }

  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    switch (op.stage) {
      case kScanning: {
        // One move: read the next cell of the current collect.
        State nx = st;
        OpState& nop = nx.op[static_cast<std::size_t>(o)];
        nop.loop.partial[static_cast<std::size_t>(op.loop.idx)] =
            st.cell[static_cast<std::size_t>(op.loop.idx)];
        ++nop.loop.idx;
        if (nop.loop.idx == kCells) {
          View view;
          if (evaluate_collect(nop, &view)) {
            finish_scan_loop(nx, o, view, k_);
          }
        }
        e.add(state_bytes(nx), [o, &op] {
          return std::string(kOpName[o]) + " reads M[" +
                 std::to_string(op.loop.idx) + "]";
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
      case kWrite: {
        // Update's single atomic write: (1, seq+1).
        State nx = st;
        Cell& cell = nx.cell[static_cast<std::size_t>(kOpPid[o])];
        cell.value = 1;
        cell.seq += 1;
        nx.op[static_cast<std::size_t>(o)].canonicalize_done();
        e.add(state_bytes(nx), [o] {
          return std::string(kOpName[o]) + " writes M[" +
                 std::to_string(kOpPid[o]) + "]";
        });
        break;
      }
      case kReturn: {
        State nx = st;
        finish_return(nx, o);
        e.add(state_bytes(nx),
              [o] { return std::string(kOpName[o]) + " returns"; });
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
               "SnapshotWeakenerGame stuck (no moves, no terminal)");
}

}  // namespace blunt::game
