#include "lin/spec.hpp"

#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace blunt::lin {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Hashes a Value by variant index + payload, matching no particular
/// serialization — only required to be injective enough for the checker's
/// (done, state-hash) memo.
std::uint64_t hash_value(std::uint64_t h, const sim::Value& v) {
  h = fnv1a_step(h, v.index());
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    h = fnv1a_step(h, static_cast<std::uint64_t>(*i));
  } else if (const auto* vec = std::get_if<std::vector<std::int64_t>>(&v)) {
    h = fnv1a_step(h, vec->size());
    for (std::int64_t x : *vec) h = fnv1a_step(h, static_cast<std::uint64_t>(x));
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    h = fnv1a_bytes(h, *s);
  }
  return h;
}

class RegisterState final : public SpecState {
 public:
  explicit RegisterState(sim::Value v) : value_(std::move(v)) {}

  [[nodiscard]] std::unique_ptr<SpecState> clone() const override {
    return std::make_unique<RegisterState>(value_);
  }

  [[nodiscard]] sim::Value result_of(const Operation& op) const override {
    if (op.method == "Read") return value_;
    if (op.method == "Write") return sim::Value{};
    BLUNT_UNREACHABLE("register spec: unknown method " << op.method);
  }

  void apply(const Operation& op) override {
    if (op.method == "Write") value_ = op.argument;
  }

  [[nodiscard]] bool undoable() const override { return true; }

  void apply_undoable(const Operation& op) override {
    if (op.method == "Write") {
      undo_.push_back(std::move(value_));
      value_ = op.argument;
    } else {
      undo_.emplace_back();  // Read: no effect, but keep the LIFO aligned
    }
  }

  void undo() override {
    BLUNT_ASSERT(!undo_.empty(), "register undo with empty stack");
    if (undo_.back().has_value()) value_ = std::move(*undo_.back());
    undo_.pop_back();
  }

  [[nodiscard]] std::uint64_t hash() const override {
    return hash_value(kFnvOffset ^ 'r', value_);
  }

 private:
  sim::Value value_;
  // Undo stack: prior value for a Write, nullopt for a Read.
  std::vector<std::optional<sim::Value>> undo_;
};

class QueueState final : public SpecState {
 public:
  QueueState() = default;
  explicit QueueState(std::vector<std::int64_t> items)
      : items_(std::move(items)) {}

  [[nodiscard]] std::unique_ptr<SpecState> clone() const override {
    return std::make_unique<QueueState>(items_);
  }

  [[nodiscard]] sim::Value result_of(const Operation& op) const override {
    if (op.method == "Enq") return sim::Value{};
    if (op.method == "Deq") {
      // Dequeue of an empty queue is outside the deterministic spec; the
      // workloads in this repo never produce it (the Deq retries instead).
      if (items_.empty()) return sim::Value(std::string("<empty>"));
      return sim::Value(items_.front());
    }
    BLUNT_UNREACHABLE("queue spec: unknown method " << op.method);
  }

  void apply(const Operation& op) override {
    if (op.method == "Enq") {
      items_.push_back(sim::as_int(op.argument));
    } else if (op.method == "Deq" && !items_.empty()) {
      items_.erase(items_.begin());
    }
  }

  [[nodiscard]] std::uint64_t hash() const override {
    std::uint64_t h = fnv1a_step(kFnvOffset ^ 'q', items_.size());
    for (std::int64_t v : items_) {
      h = fnv1a_step(h, static_cast<std::uint64_t>(v));
    }
    return h;
  }

 private:
  std::vector<std::int64_t> items_;
};

class SnapshotState final : public SpecState {
 public:
  SnapshotState(std::vector<std::int64_t> segs) : segs_(std::move(segs)) {}

  [[nodiscard]] std::unique_ptr<SpecState> clone() const override {
    return std::make_unique<SnapshotState>(segs_);
  }

  [[nodiscard]] sim::Value result_of(const Operation& op) const override {
    if (op.method == "Scan") return segs_;
    if (op.method == "Update") return sim::Value{};
    BLUNT_UNREACHABLE("snapshot spec: unknown method " << op.method);
  }

  void apply(const Operation& op) override {
    if (op.method == "Update") {
      BLUNT_ASSERT(op.pid >= 0 &&
                       op.pid < static_cast<int>(segs_.size()),
                   "Update by pid " << op.pid << " outside snapshot of "
                                    << segs_.size() << " segments");
      segs_[static_cast<std::size_t>(op.pid)] = sim::as_int(op.argument);
    }
  }

  [[nodiscard]] bool undoable() const override { return true; }

  void apply_undoable(const Operation& op) override {
    if (op.method == "Update") {
      const auto seg = static_cast<std::size_t>(op.pid);
      BLUNT_ASSERT(op.pid >= 0 && seg < segs_.size(),
                   "Update by pid " << op.pid << " outside snapshot of "
                                    << segs_.size() << " segments");
      undo_.push_back({op.pid, segs_[seg]});
      segs_[seg] = sim::as_int(op.argument);
    } else {
      undo_.push_back({-1, 0});  // Scan: no effect
    }
  }

  void undo() override {
    BLUNT_ASSERT(!undo_.empty(), "snapshot undo with empty stack");
    const auto [pid, old] = undo_.back();
    if (pid >= 0) segs_[static_cast<std::size_t>(pid)] = old;
    undo_.pop_back();
  }

  [[nodiscard]] std::uint64_t hash() const override {
    std::uint64_t h = kFnvOffset ^ 's';
    for (std::int64_t s : segs_) h = fnv1a_step(h, static_cast<std::uint64_t>(s));
    return h;
  }

 private:
  std::vector<std::int64_t> segs_;
  // Undo stack: (segment pid, prior value) for an Update, (-1, 0) for a Scan.
  std::vector<std::pair<Pid, std::int64_t>> undo_;
};

}  // namespace

void SpecState::undo() {
  BLUNT_UNREACHABLE("undo() on a SpecState that is not undoable");
}

std::unique_ptr<SpecState> RegisterSpec::initial() const {
  return std::make_unique<RegisterState>(initial_);
}

std::unique_ptr<SpecState> QueueSpec::initial() const {
  return std::make_unique<QueueState>();
}

std::unique_ptr<SpecState> SnapshotSpec::initial() const {
  BLUNT_ASSERT(segments_ > 0, "snapshot needs at least one segment");
  return std::make_unique<SnapshotState>(std::vector<std::int64_t>(
      static_cast<std::size_t>(segments_), initial_));
}

}  // namespace blunt::lin
