#include "game/solver.hpp"

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>

namespace blunt::game {

namespace {

static_assert(std::is_trivially_copyable_v<Rational>);

std::uint64_t hash_bytes(const char* p, std::size_t n) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (std::rotl(h, 5) ^ w) * kMul;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  h = (std::rotl(h, 5) ^ tail) * kMul;
  // splitmix64 finalizer: the slot index and the tag take different bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// The solver's memo: an open-addressed table of {32-bit hash tag, record
/// index} slots (linear probing, power-of-two size, load < 0.7, no
/// deletion) over records laid out as [key bytes | pending flag | value].
/// Records live in fixed-size chunks that never move, so adding records
/// never copies the ones already stored (nor briefly doubles their memory,
/// as a growing vector would). A tag match counts only once the full key
/// compares equal.
class Memo {
 public:
  struct Entry {
    std::uint32_t record;
    bool reserved;  // true: new record, pending until set_value
  };

  explicit Memo(std::size_t key_bytes)
      : key_bytes_(key_bytes),
        record_bytes_(key_bytes + 1 + sizeof(Rational)),
        slots_(kInitialSlots) {}

  /// Finds `key`'s record, or reserves a new pending one for it.
  Entry find_or_reserve(std::string_view key) {
    BLUNT_ASSERT(key.size() == key_bytes_,
                 "game state of " << key.size() << " bytes, expected "
                                  << key_bytes_);
    if ((std::size_t{size_} + 1) * 10 >= slots_.size() * 7) grow();
    const std::uint64_t h = hash_bytes(key.data(), key_bytes_);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    for (; slots_[i].record != kEmpty; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.tag == tag &&
          std::memcmp(record(s.record), key.data(), key_bytes_) == 0) {
        return {s.record, false};
      }
    }
    BLUNT_ASSERT(size_ < kEmpty, "game memo full: " << size_ << " states");
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(
          std::make_unique_for_overwrite<unsigned char[]>(kChunkRecords *
                                                          record_bytes_));
    }
    const std::uint32_t r = size_++;
    unsigned char* rec = record(r);
    std::memcpy(rec, key.data(), key_bytes_);
    rec[key_bytes_] = 1;
    slots_[i] = {tag, r};
    return {r, true};
  }

  [[nodiscard]] bool pending(std::uint32_t r) const {
    return record(r)[key_bytes_] != 0;
  }

  [[nodiscard]] Rational value(std::uint32_t r) const {
    Rational v;
    std::memcpy(&v, record(r) + key_bytes_ + 1, sizeof v);
    return v;
  }

  void set_value(std::uint32_t r, const Rational& v) {
    unsigned char* rec = record(r);
    std::memcpy(rec + key_bytes_ + 1, &v, sizeof v);
    rec[key_bytes_] = 0;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t record = kEmpty;
  };

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kInitialSlots = 1024;
  static constexpr int kChunkShift = 12;
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkRecords - 1;

  [[nodiscard]] unsigned char* record(std::uint32_t r) const {
    return chunks_[r >> kChunkShift].get() + (r & kChunkMask) * record_bytes_;
  }

  // Doubles the table and re-slots every record from its stored key.
  void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t r = 0; r < size_; ++r) {
      const std::uint64_t h = hash_bytes(
          reinterpret_cast<const char*>(record(r)), key_bytes_);
      std::size_t i = static_cast<std::size_t>(h) & mask;
      while (slots_[i].record != kEmpty) i = (i + 1) & mask;
      slots_[i] = {static_cast<std::uint32_t>(h >> 32), r};
    }
  }

  std::size_t key_bytes_;
  std::size_t record_bytes_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::uint32_t size_ = 0;
};

// A state for a diagnostic: as text when printable, else as hex bytes.
std::string printable(std::string_view s) {
  bool text = true;
  for (const char c : s) text = text && c >= ' ' && c <= '~';
  if (text) return std::string(s);
  std::ostringstream os;
  os << std::hex;
  for (const char c : s) {
    const auto b = static_cast<unsigned>(static_cast<unsigned char>(c));
    os << (b < 16 ? "0" : "") << b;
  }
  return os.str();
}

class Solver {
 public:
  explicit Solver(const GameModel& model)
      : model_(model), memo_(model.initial().size()) {}

  Rational value(std::string_view state, int depth) {
    if (stats_.max_depth < depth) stats_.max_depth = depth;
    const auto d = static_cast<std::size_t>(depth);
    if (path_.size() <= d) {
      path_.resize(d + 1);
      frames_.resize(d + 1);
    }
    path_[d] = state;
    const Memo::Entry at = memo_.find_or_reserve(state);
    if (!at.reserved) {
      if (memo_.pending(at.record)) fail_cycle(state, d);
      return memo_.value(at.record);
    }
    // Successor views alias this depth's frame, which is cleared again only
    // after every one of them has been solved.
    Expansion& e = frames_[d];
    e.clear();
    model_.expand(state, e);
    ++stats_.expansions;
    Rational v;
    switch (e.kind) {
      case Expansion::Kind::kTerminal:
        v = e.terminal_value;
        break;
      case Expansion::Kind::kAdversary: {
        BLUNT_ASSERT(!e.empty(), "adversary node with no moves");
        for (std::size_t i = 0; i < e.size(); ++i) {
          const Rational c = value(e.next(i), depth + 1);
          if (i == 0 || c > v) v = c;
        }
        break;
      }
      case Expansion::Kind::kChance: {
        BLUNT_ASSERT(!e.empty(), "chance node with no outcomes");
        for (std::size_t i = 0; i < e.size(); ++i) {
          v += value(e.next(i), depth + 1);
        }
        v /= Rational(static_cast<std::int64_t>(e.size()));
        break;
      }
    }
    memo_.set_value(at.record, v);
    ++stats_.states_visited;
    return v;
  }

  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  // `state` at depth `d` is still pending, so it lies on the current path.
  [[noreturn]] void fail_cycle(std::string_view state, std::size_t d) {
    std::size_t from = 0;
    while (path_[from] != state) ++from;
    std::string cycle;
    for (std::size_t i = from; i <= d; ++i) {
      cycle += (i == from ? "" : " -> ") + printable(path_[i]);
    }
    BLUNT_UNREACHABLE("cyclic game: the state at depth "
                      << d << " repeats the one at depth " << from
                      << " while its value is pending: " << cycle);
  }

  const GameModel& model_;
  Memo memo_;
  // Per depth: the state being solved and the frame its successors live
  // in. A deque never moves its elements, so no view into a frame dangles
  // when a deeper frame is added.
  std::vector<std::string_view> path_;
  std::deque<Expansion> frames_;
  SolveStats stats_;
};

}  // namespace

Rational solve(const GameModel& model, SolveStats* stats) {
  Solver s(model);
  const Rational v = s.value(model.initial(), 0);
  if (stats != nullptr) *stats = s.stats();
  return v;
}

std::vector<StrategyEdge> extract_strategy(const GameModel& model,
                                           int max_edges) {
  Solver s(model);
  std::vector<StrategyEdge> edges;
  std::string state(model.initial());
  Expansion e(/*with_labels=*/true);
  for (int i = 0; i < max_edges; ++i) {
    e.clear();
    model.expand(state, e);
    if (e.kind == Expansion::Kind::kTerminal) break;
    const bool chance = e.kind == Expansion::Kind::kChance;
    // Adversary: the first argmax move. Chance: outcome 0 (callers wanting
    // full trees re-run with a conditioned model).
    std::size_t pick = 0;
    Rational pick_v = s.value(e.next(0), 0);
    for (std::size_t j = 1; !chance && j < e.size(); ++j) {
      const Rational v = s.value(e.next(j), 0);
      if (v > pick_v) {
        pick_v = v;
        pick = j;
      }
    }
    const std::string& label = e.label(pick);
    edges.push_back({label.empty() ? (chance ? "coin" : "?") : label, chance,
                     chance ? 0 : -1, pick_v});
    state.assign(e.next(pick));
  }
  return edges;
}

}  // namespace blunt::game
