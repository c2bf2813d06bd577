#include "game/solver.hpp"

#include <sanitizer/asan_interface.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

namespace blunt::game {

namespace {

static_assert(std::is_trivially_copyable_v<Rational>);

// A record's flag byte: bit w marks worker w busy in the state, kSolved says
// its value is stored. The byte bounds the worker count.
constexpr unsigned char kSolved = 0x80;
constexpr int kMaxWorkers = 7;
static_assert((1u << kMaxWorkers) == kSolved);

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

// Zeroed anonymous pages, mapped straight from the kernel. The memo keeps
// all of its storage outside malloc: memory a worker thread frees would go
// to that thread's arena, which keeps it after the solve.
unsigned char* map_pages(std::size_t bytes, bool populate) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | (populate ? MAP_POPULATE : 0),
                 -1, 0);
  BLUNT_ASSERT(p != MAP_FAILED, "game memo: cannot map " << bytes << " bytes");
  return static_cast<unsigned char*>(p);
}

void unmap_pages(void* p, std::size_t bytes) { munmap(p, bytes); }

// Thrown inside a worker to unwind it once another worker has failed.
struct Stopped {};

/// The solver's memo, shared by every worker: an open-addressed table of
/// 64-bit {32-bit hash tag, record index + 1} slots (0 is empty; linear
/// probing, power-of-two size, load about 0.7, no deletion) over records laid
/// out as [key bytes | flag byte | value].
///
/// A slot is published by compare-and-swap. Each worker writes its records
/// through its own cursor into chunks that never move, and a worker that
/// loses the swap to an equal key keeps its record for its next insert, so
/// every state is stored once. A record's key never changes once published;
/// its value is written once, by the worker that stored the record, before
/// its flag says kSolved. A chunk's records are poisoned for
/// AddressSanitizer until its cursor hands them out, so a read past the
/// last record stored is reported.
///
/// A slot's home is the top bits of its tag, so growing re-slots every entry
/// from its tag alone. The table doubles at a gate: once the workers'
/// batched insert counts pass the load limit, each active worker stops at its
/// next lookup, the last to arrive maps a table twice the size, and all of
/// them move the entries over. Workers that have left the solve are not
/// waited for.
class Memo {
 public:
  struct Entry {
    std::uint32_t record;
    bool inserted;  // true: a new record, stored by this lookup
  };

  /// A worker's private insert state: its next free record and the inserts
  /// it has not yet added to the shared count.
  struct Cursor {
    std::uint32_t next = 0;
    std::uint32_t end = 0;
    std::uint32_t unflushed = 0;
  };

  Memo(std::size_t key_bytes, int workers)
      : key_bytes_(key_bytes),
        record_bytes_(key_bytes + 1 + sizeof(Rational)),
        chunks_(reinterpret_cast<unsigned char**>(
            map_pages(kMaxChunks * sizeof(unsigned char*), false))),
        active_(workers) {
    resize(kInitialShift);
  }

  ~Memo() {
    const std::uint32_t used =
        std::min(next_chunk_.load(std::memory_order_relaxed), kMaxChunks);
    for (std::uint32_t i = 0; i < used; ++i) {
      ASAN_UNPOISON_MEMORY_REGION(chunks_[i], kChunkRecords * record_bytes_);
      unmap_pages(chunks_[i], kChunkRecords * record_bytes_);
    }
    unmap_pages(chunks_, kMaxChunks * sizeof(unsigned char*));
    unmap_pages(slots_, slot_count() * sizeof(std::uint64_t));
  }

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Finds `key`, or stores it as a new record flagged busy by `mark`. `h`
  /// is hash_key(key). For workers only: it may stop at the growth gate.
  Entry find_or_insert(std::string_view key, std::uint64_t h, Cursor& c,
                       unsigned char mark) {
    if (signal_.load(std::memory_order_relaxed) != 0) poll();
    BLUNT_ASSERT(key.size() == key_bytes_,
                 "game state of " << key.size() << " bytes, expected "
                                  << key_bytes_);
    const std::uint32_t tag = tag_of(h);
    bool written = false;
    for (std::size_t i = home(tag);; i = (i + 1) & mask_) {
      std::atomic_ref<std::uint64_t> slot(slots_[i]);
      std::uint64_t s = slot.load(std::memory_order_acquire);
      if (s == 0) {
        if (!written) {
          if (c.next == c.end) take_chunk(c);
          unsigned char* rec = record(c.next);
          ASAN_UNPOISON_MEMORY_REGION(rec, record_bytes_);
          std::memcpy(rec, key.data(), key_bytes_);
          rec[key_bytes_] = mark;
          written = true;
        }
        const std::uint64_t mine = (std::uint64_t{tag} << 32) | (c.next + 1);
        if (slot.compare_exchange_strong(s, mine, std::memory_order_release,
                                         std::memory_order_acquire)) {
          count_insert(c);
          return {c.next++, true};
        }
        // Another worker took the slot first; `s` is now its entry.
      }
      const auto r = static_cast<std::uint32_t>(s) - 1;
      if (tag_of_slot(s) == tag &&
          std::memcmp(record(r), key.data(), key_bytes_) == 0) {
        return {r, false};
      }
    }
  }

  /// Finds a stored key without inserting or waiting; once no worker runs.
  [[nodiscard]] std::uint32_t find(std::string_view key,
                                   std::uint64_t h) const {
    const std::uint32_t tag = tag_of(h);
    for (std::size_t i = home(tag);; i = (i + 1) & mask_) {
      const std::uint64_t s = slots_[i];
      BLUNT_ASSERT(s != 0, "state missing from the solved game memo");
      const auto r = static_cast<std::uint32_t>(s) - 1;
      if (tag_of_slot(s) == tag &&
          std::memcmp(record(r), key.data(), key_bytes_) == 0) {
        return r;
      }
    }
  }

  /// Starts loading the slot where a lookup of hash `h` begins. Always
  /// inlined: an out-of-line copy writes nothing, so GCC deems it pure and
  /// drops every call to it.
  [[gnu::always_inline]] void prefetch_slot(std::uint64_t h) const {
    __builtin_prefetch(&slots_[home(tag_of(h))]);
  }

  [[nodiscard]] unsigned char flag(std::uint32_t r) const {
    return flag_ref(r).load(std::memory_order_acquire);
  }
  /// Adds busy mark `bit` to record r's flag and returns the flag before.
  unsigned char mark(std::uint32_t r, unsigned char bit) const {
    return flag_ref(r).fetch_or(bit, std::memory_order_acq_rel);
  }
  void unmark(std::uint32_t r, unsigned char bit) const {
    flag_ref(r).fetch_and(static_cast<unsigned char>(~bit),
                          std::memory_order_relaxed);
  }

  /// Record r's value; its flag must have read kSolved.
  [[nodiscard]] Rational value(std::uint32_t r) const {
    Rational v;
    std::memcpy(&v, record(r) + key_bytes_ + 1, sizeof v);
    return v;
  }

  /// Stores record r's value, by the worker that stored the record. Busy
  /// marks stop mattering once the state is solved, so they are dropped.
  void publish(std::uint32_t r, const Rational& v) const {
    std::memcpy(record(r) + key_bytes_ + 1, &v, sizeof v);
    flag_ref(r).store(kSolved, std::memory_order_release);
  }

  /// Ends the solve for a worker, or for one that never started; a growth
  /// that waits only for it starts now.
  void retire() {
    const std::lock_guard lock(gate_);
    --active_;
    if (active_ > 0 && arrived_ == active_ &&
        (signal_.load(std::memory_order_relaxed) & kGrow) != 0) {
      begin_growth();
    }
  }

  /// Makes every worker throw Stopped at its next lookup.
  void stop() { signal_.fetch_or(kStop, std::memory_order_relaxed); }

 private:
  static constexpr unsigned kGrow = 1;
  static constexpr unsigned kStop = 2;
  // 1024 slots to start; a table of 2^32 slots (shift 0) cannot double,
  // as its home indices already take every bit of the tag.
  static constexpr int kInitialShift = 22;
  static constexpr int kChunkShift = 12;
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
  // One chunk short of the index space, so that record index + 1 fits a
  // slot's 32 bits.
  static constexpr std::uint32_t kMaxChunks = (1u << (32 - kChunkShift)) - 1;
  // Old-table slots a worker moves at a time while the table grows.
  static constexpr std::size_t kMoveBlock = 4096;

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  [[nodiscard]] static std::uint32_t tag_of_slot(std::uint64_t s) {
    return static_cast<std::uint32_t>(s >> 32);
  }
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return tag >> shift_;
  }
  [[nodiscard]] std::size_t slot_count() const {
    return std::size_t{1} << (32 - shift_);
  }

  [[nodiscard]] unsigned char* record(std::uint32_t r) const {
    return chunks_[r >> kChunkShift] +
           std::size_t{r & (kChunkRecords - 1)} * record_bytes_;
  }
  [[nodiscard]] std::atomic_ref<unsigned char> flag_ref(std::uint32_t r) const {
    return std::atomic_ref<unsigned char>(record(r)[key_bytes_]);
  }

  // Gives cursor `c` a fresh chunk. A chunk's pointer is stored before any
  // of its records is published, so every reader of a slot finds it. The
  // chunk is populated when mapped: one fault per page as records fill it
  // made a 16k-state one-worker solve about a tenth slower.
  void take_chunk(Cursor& c) {
    const std::uint32_t i = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    BLUNT_ASSERT(i < kMaxChunks, "game memo full: " << kMaxChunks
                                                    << " record chunks");
    chunks_[i] = map_pages(kChunkRecords * record_bytes_, true);
    ASAN_POISON_MEMORY_REGION(chunks_[i], kChunkRecords * record_bytes_);
    c.next = i << kChunkShift;
    c.end = c.next + kChunkRecords;
  }

  // Adds a batch of inserts to the shared count and asks for growth past
  // the load limit. A batch is at most 1/1024 of the table, so the inserts
  // no one has counted yet stay far inside the table's spare slots.
  void count_insert(Cursor& c) {
    if (++c.unflushed < batch_) return;
    const std::uint64_t n =
        inserted_.fetch_add(c.unflushed, std::memory_order_relaxed) +
        c.unflushed;
    c.unflushed = 0;
    if (n >= limit_) signal_.fetch_or(kGrow, std::memory_order_relaxed);
  }

  // The slow path of a lookup: stop, or pass the growth gate, moving a
  // share of the table.
  void poll() {
    std::unique_lock lock(gate_);
    for (;;) {
      const unsigned s = signal_.load(std::memory_order_relaxed);
      if ((s & kStop) != 0) throw Stopped{};
      if ((s & kGrow) == 0) return;
      const std::uint64_t gen = generation_;
      if (++arrived_ == active_) {
        begin_growth();
      } else {
        gate_cv_.wait(lock, [&] { return old_slots_ != nullptr; });
      }
      move_share(lock);
      gate_cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

  // With the gate held and every active worker arrived: maps the doubled
  // table and lets the arrived workers move the entries over.
  void begin_growth() {
    BLUNT_ASSERT(shift_ > 0, "game memo full: " << slot_count() << " slots");
    old_slots_ = slots_;
    old_count_ = slot_count();
    resize(shift_ - 1);
    next_block_.store(0, std::memory_order_relaxed);
    movers_ = arrived_;
    gate_cv_.notify_all();
  }

  // Re-slots blocks of the old table, each entry from its tag, until none
  // is left; the last worker to finish ends the growth. Nothing else reads
  // or writes either table meanwhile.
  void move_share(std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    const std::size_t blocks = (old_count_ + kMoveBlock - 1) / kMoveBlock;
    for (;;) {
      const std::size_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) break;
      const std::size_t end = std::min(old_count_, (b + 1) * kMoveBlock);
      for (std::size_t j = b * kMoveBlock; j < end; ++j) {
        const std::uint64_t s = old_slots_[j];
        if (s == 0) continue;
        for (std::size_t i = home(tag_of_slot(s));; i = (i + 1) & mask_) {
          std::atomic_ref<std::uint64_t> slot(slots_[i]);
          std::uint64_t empty = 0;
          if (slot.load(std::memory_order_relaxed) == 0 &&
              slot.compare_exchange_strong(empty, s,
                                           std::memory_order_relaxed)) {
            break;
          }
        }
      }
    }
    lock.lock();
    if (--movers_ > 0) return;
    unmap_pages(old_slots_, old_count_ * sizeof(std::uint64_t));
    old_slots_ = nullptr;
    arrived_ = 0;
    ++generation_;
    signal_.fetch_and(~kGrow, std::memory_order_relaxed);
    gate_cv_.notify_all();
  }

  // Maps an empty table of 2^(32 - shift) slots and sets its limits.
  void resize(int shift) {
    shift_ = shift;
    slots_ = reinterpret_cast<std::uint64_t*>(
        map_pages(slot_count() * sizeof(std::uint64_t), true));
    mask_ = slot_count() - 1;
    limit_ = slot_count() / 10 * 7;
    batch_ = static_cast<std::uint32_t>(std::max<std::size_t>(
        1, slot_count() >> 10));
  }

  const std::size_t key_bytes_;
  const std::size_t record_bytes_;
  // The table and its limits change only at the gate, while every active
  // worker is there.
  std::uint64_t* slots_ = nullptr;
  int shift_ = 0;  // home(tag) = tag >> shift_
  std::size_t mask_ = 0;
  std::uint64_t limit_ = 0;
  std::uint32_t batch_ = 1;
  unsigned char** const chunks_;  // kMaxChunks entries

  // Each shared counter on a cache line of its own: every lookup reads
  // signal_, and a write to a neighbor would evict it from every core.
  alignas(64) std::atomic<unsigned> signal_{0};
  alignas(64) std::atomic<std::uint64_t> inserted_{0};
  alignas(64) std::atomic<std::uint32_t> next_chunk_{0};
  alignas(64) std::atomic<std::size_t> next_block_{0};  // of a growth's move

  alignas(64) std::mutex gate_;
  std::condition_variable gate_cv_;
  int active_;  // workers still in the solve
  int arrived_ = 0;
  std::uint64_t generation_ = 0;  // growths done
  // The growth under way: the table being moved, and the workers moving it.
  std::uint64_t* old_slots_ = nullptr;
  std::size_t old_count_ = 0;
  int movers_ = 0;
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

/// One search thread. Every worker solves the root, by depth-first search
/// over the shared memo, splitting the work the way ABDADA (Weill, 1996)
/// splits alpha-beta: a worker marks each state it is in busy, first solves
/// the successors no other worker is busy in, and then joins the ones it
/// deferred, solving them alongside the workers already there. Only the
/// worker that stored a state's record stores its value; a joiner that
/// finishes first uses its own, equal, value and drops it.
class Worker {
 public:
  Worker(const GameModel& model, Memo& memo, int id)
      : model_(model),
        memo_(memo),
        mark_(static_cast<unsigned char>(1u << id)) {}

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Solves the root, then leaves the solve.
  void run() {
    try {
      const std::string_view root = model_.initial();
      const Memo::Entry at =
          memo_.find_or_insert(root, hash_key(root), cursor_, mark_);
      if (at.inserted) {
        (void)solve(at.record, root, 0, /*owner=*/true);
      } else if ((memo_.flag(at.record) & kSolved) == 0) {
        (void)join(at.record, root, 0);
      }
    } catch (const Stopped&) {
    } catch (...) {
      error_ = std::current_exception();
      memo_.stop();
    }
    memo_.retire();
  }

  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] int max_depth() const { return max_depth_; }
  [[nodiscard]] const std::exception_ptr& error() const { return error_; }

 private:
  // A depth's successors, their hashes, and those deferred to a join.
  struct Frame {
    Expansion moves;
    std::vector<std::uint64_t> hashes;
    std::vector<std::pair<std::size_t, std::uint32_t>> deferred;  // (i, r)
  };

  // Solves `state`, record r, at `depth`. The owner (the worker that stored
  // the record) stores the value; a joiner only returns it.
  Rational solve(std::uint32_t r, std::string_view state, int depth,
                 bool owner) {
    const auto d = static_cast<std::size_t>(depth);
    if (frames_.size() <= d) {
      frames_.resize(d + 1);
      path_.resize(d + 1);
    }
    path_[d] = state;
    // Successor views alias this depth's frame, which is cleared again only
    // after every one of them has been solved.
    Frame& f = frames_[d];
    Expansion& e = f.moves;
    e.clear();
    model_.expand(state, e);
    Rational v;
    if (e.kind == Expansion::Kind::kTerminal) {
      v = e.terminal_value;
    } else {
      const bool chance = e.kind == Expansion::Kind::kChance;
      BLUNT_ASSERT(!e.empty() || chance, "adversary node with no moves");
      BLUNT_ASSERT(!e.empty() || !chance, "chance node with no outcomes");
      max_depth_ = std::max(max_depth_, depth + 1);
      // Hash each successor once and start loading its home slot, so the
      // lookups below find their slots on their way in.
      f.hashes.clear();
      for (std::size_t i = 0; i < e.size(); ++i) {
        f.hashes.push_back(hash_key(e.next(i)));
        memo_.prefetch_slot(f.hashes.back());
      }
      bool first = true;
      const auto take = [&](const Rational& c) {
        if (chance) {
          v += c;
        } else if (first || c > v) {
          v = c;
        }
        first = false;
      };
      f.deferred.clear();
      for (std::size_t i = 0; i < e.size(); ++i) {
        const std::string_view next = e.next(i);
        const Memo::Entry at =
            memo_.find_or_insert(next, f.hashes[i], cursor_, mark_);
        if (at.inserted) {
          take(solve(at.record, next, depth + 1, /*owner=*/true));
          continue;
        }
        const unsigned char flag = memo_.flag(at.record);
        if ((flag & kSolved) != 0) {
          take(memo_.value(at.record));
        } else if ((flag & mark_) != 0) {
          fail_cycle(next, d + 1);
        } else {
          f.deferred.emplace_back(i, at.record);
        }
      }
      for (const auto& [i, rec] : f.deferred) {
        take(join(rec, e.next(i), depth + 1));
      }
      if (chance) v /= Rational(static_cast<std::int64_t>(e.size()));
    }
    if (owner) {
      memo_.publish(r, v);
      ++stored_;
    }
    return v;
  }

  // Solves record r, which other workers are busy in, alongside them.
  Rational join(std::uint32_t r, std::string_view state, int depth) {
    if ((memo_.mark(r, mark_) & kSolved) != 0) return memo_.value(r);
    const Rational v = solve(r, state, depth, /*owner=*/false);
    memo_.unmark(r, mark_);
    return v;
  }

  // `state`, reached at depth `d`, carries this worker's busy mark and is
  // unsolved, so it lies on this worker's path.
  [[noreturn]] void fail_cycle(std::string_view state, std::size_t d) {
    path_.resize(d + 1);
    path_[d] = state;
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
  Memo& memo_;
  const unsigned char mark_;
  Memo::Cursor cursor_;
  // Per depth: the state being solved and the frame its successors live
  // in. A deque never moves its elements, so no view into a frame dangles
  // when a deeper frame is added.
  std::vector<std::string_view> path_;
  std::deque<Frame> frames_;
  std::size_t stored_ = 0;
  int max_depth_ = 0;
  std::exception_ptr error_;
};

// The CPUs this process may run on, capped at the workers a flag byte can
// mark.
int worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::clamp(CPU_COUNT(&set), 1, kMaxWorkers);
}

/// One optimal line of play of at most `max_edges` edges from the root,
/// read from a solved memo: every successor of a solved state is solved.
std::vector<StrategyEdge> line_of_play(const GameModel& model,
                                       const Memo& memo, int max_edges) {
  std::vector<StrategyEdge> edges;
  std::string state(model.initial());
  Expansion e(/*with_labels=*/true);
  const auto solved = [&](std::size_t i) {
    return memo.value(memo.find(e.next(i), hash_key(e.next(i))));
  };
  for (int i = 0; i < max_edges; ++i) {
    e.clear();
    model.expand(state, e);
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

}  // namespace

Rational solve(const GameModel& model, SolveStats* stats,
               std::vector<StrategyEdge>* line, int max_edges) {
  const int n = worker_count();
  const std::string_view root = model.initial();
  Memo memo(root.size(), n);
  std::deque<Worker> workers;
  for (int w = 0; w < n; ++w) workers.emplace_back(model, memo, w);
  // The calling thread is worker 0. A worker whose thread cannot start
  // leaves the solve at once, so the gate never waits for it.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w) {
    try {
      threads.emplace_back([&worker = workers[static_cast<std::size_t>(w)]] {
        worker.run();
      });
    } catch (...) {
      memo.retire();
    }
  }
  workers[0].run();
  for (std::thread& t : threads) t.join();
  for (const Worker& w : workers) {
    if (w.error()) std::rethrow_exception(w.error());
  }

  if (stats != nullptr) {
    *stats = SolveStats{};
    for (const Worker& w : workers) {
      stats->states_visited += w.stored();
      stats->max_depth = std::max(stats->max_depth, w.max_depth());
    }
    stats->expansions = stats->states_visited;
  }
  if (line != nullptr) *line = line_of_play(model, memo, max_edges);
  return memo.value(memo.find(root, hash_key(root)));
}

}  // namespace blunt::game
