#include "game/solver.hpp"

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>

namespace blunt::game {

namespace {

static_assert(std::is_trivially_copyable_v<Rational>);

// A key's hash, as the memo takes it.
std::uint64_t hash_key(std::string_view key) {
  const char* p = key.data();
  const std::size_t n = key.size();
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = n;
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (std::rotl(h, 5) ^ w) * kMul;
  }
  // The last word, overlapping the loop's; shorter keys take what there is.
  std::uint64_t tail = 0;
  if (n >= 8) {
    std::memcpy(&tail, p + n - 8, 8);
  } else {
    std::memcpy(&tail, p, n);
  }
  h = (std::rotl(h, 5) ^ tail) * kMul;
  // splitmix64 finalizer: the tag, and the home slot within it, take the
  // top bits.
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
/// A slot's home is the top bits of its tag, so growing re-slots every
/// entry from its tag alone, without reading a record. Records live in
/// fixed-size chunks that never move, so adding records never copies the
/// ones already stored (nor briefly doubles their memory, as a growing
/// vector would). A tag match counts only once the full key compares equal.
class Memo {
 public:
  struct Entry {
    std::uint32_t record;
    bool reserved;  // true: new record, pending until set_value
  };

  explicit Memo(std::size_t key_bytes)
      : key_bytes_(key_bytes),
        record_bytes_(key_bytes + 1 + sizeof(Rational)),
        slots_(std::size_t{1} << (32 - kInitialShift)) {}

  /// Finds `key`'s record, or reserves a new pending one for it. `h` is
  /// hash_key(key).
  Entry find_or_reserve(std::string_view key, std::uint64_t h) {
    BLUNT_ASSERT(key.size() == key_bytes_,
                 "game state of " << key.size() << " bytes, expected "
                                  << key_bytes_);
    if ((std::size_t{size_} + 1) * 10 >= slots_.size() * 7) grow();
    const std::uint32_t tag = tag_of(h);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(tag);
    for (; slots_[i].record != kEmpty; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.tag == tag &&
          std::memcmp(record(s.record), key.data(), key_bytes_) == 0) {
        return {s.record, false};
      }
    }
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

  /// Starts loading the slot where a lookup of hash `h` begins. Always
  /// inlined: an out-of-line copy writes nothing, so GCC deems it pure and
  /// drops every call to it.
  [[gnu::always_inline]] void prefetch_slot(std::uint64_t h) const {
    __builtin_prefetch(&slots_[home(tag_of(h))]);
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
  // 1024 slots to start; a table of 2^32 slots (shift 0) cannot double,
  // as its home indices already take every bit of the tag.
  static constexpr int kInitialShift = 22;
  static constexpr int kChunkShift = 12;
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkRecords - 1;
  // At load < 0.7 a full table of 2^32 slots holds fewer records than a
  // record index can name.
  static_assert((std::uint64_t{1} << 32) / 10 * 7 < kEmpty);

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return tag >> shift_;
  }

  [[nodiscard]] unsigned char* record(std::uint32_t r) const {
    return chunks_[r >> kChunkShift].get() + (r & kChunkMask) * record_bytes_;
  }

  // Doubles the table and re-slots every entry from its tag.
  void grow() {
    BLUNT_ASSERT(shift_ > 0, "game memo full: " << size_ << " states in "
                                                << slots_.size() << " slots");
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.record == kEmpty) continue;
      std::size_t i = home(s.tag);
      while (slots_[i].record != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::size_t key_bytes_;
  std::size_t record_bytes_;
  int shift_ = kInitialShift;  // home(tag) = tag >> shift_
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

  /// The value of `state`, whose hash_key is `h`.
  Rational value(std::string_view state, std::uint64_t h, int depth) {
    if (stats_.max_depth < depth) stats_.max_depth = depth;
    const auto d = static_cast<std::size_t>(depth);
    if (path_.size() <= d) {
      path_.resize(d + 1);
      frames_.resize(d + 1);
    }
    path_[d] = state;
    const Memo::Entry at = memo_.find_or_reserve(state, h);
    if (!at.reserved) {
      if (memo_.pending(at.record)) fail_cycle(state, d);
      return memo_.value(at.record);
    }
    // Successor views alias this depth's frame, which is cleared again only
    // after every one of them has been solved.
    Frame& f = frames_[d];
    Expansion& e = f.moves;
    e.clear();
    model_.expand(state, e);
    ++stats_.expansions;
    // Hash each successor once and start loading its home slot, so the
    // lookups below find their slots on their way in.
    f.hashes.clear();
    for (std::size_t i = 0; i < e.size(); ++i) {
      f.hashes.push_back(hash_key(e.next(i)));
      memo_.prefetch_slot(f.hashes.back());
    }
    Rational v;
    switch (e.kind) {
      case Expansion::Kind::kTerminal:
        v = e.terminal_value;
        break;
      case Expansion::Kind::kAdversary: {
        BLUNT_ASSERT(!e.empty(), "adversary node with no moves");
        for (std::size_t i = 0; i < e.size(); ++i) {
          const Rational c = value(e.next(i), f.hashes[i], depth + 1);
          if (i == 0 || c > v) v = c;
        }
        break;
      }
      case Expansion::Kind::kChance: {
        BLUNT_ASSERT(!e.empty(), "chance node with no outcomes");
        for (std::size_t i = 0; i < e.size(); ++i) {
          v += value(e.next(i), f.hashes[i], depth + 1);
        }
        v /= Rational(static_cast<std::int64_t>(e.size()));
        break;
      }
    }
    memo_.set_value(at.record, v);
    ++stats_.states_visited;
    return v;
  }

  /// One optimal line of play of at most `max_edges` edges from the root,
  /// once value() has solved it: every successor of a solved state is
  /// solved too, so each subtree value is a memo hit.
  std::vector<StrategyEdge> line_of_play(int max_edges) {
    std::vector<StrategyEdge> edges;
    std::string state(model_.initial());
    Expansion e(/*with_labels=*/true);
    const auto solved = [&](std::size_t i) {
      return value(e.next(i), hash_key(e.next(i)), 0);
    };
    for (int i = 0; i < max_edges; ++i) {
      e.clear();
      model_.expand(state, e);
      if (e.kind == Expansion::Kind::kTerminal) break;
      const bool chance = e.kind == Expansion::Kind::kChance;
      // Adversary: the first argmax move. Chance: outcome 0 (callers wanting
      // full trees re-run with a conditioned model).
      std::size_t pick = 0;
      Rational pick_v = solved(0);
      for (std::size_t j = 1; !chance && j < e.size(); ++j) {
        const Rational v = solved(j);
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

  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  // A depth's successors and their hashes.
  struct Frame {
    Expansion moves;
    std::vector<std::uint64_t> hashes;
  };

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
  std::deque<Frame> frames_;
  SolveStats stats_;
};

}  // namespace

Rational solve(const GameModel& model, SolveStats* stats,
               std::vector<StrategyEdge>* line, int max_edges) {
  Solver s(model);
  const Rational v = s.value(model.initial(), hash_key(model.initial()), 0);
  if (stats != nullptr) *stats = s.stats();
  if (line != nullptr) *line = s.line_of_play(max_edges);
  return v;
}

}  // namespace blunt::game
