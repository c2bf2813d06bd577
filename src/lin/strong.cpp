#include "lin/strong.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/assert.hpp"

namespace blunt::lin {

void PreambleMapping::set(std::string object_name, std::string method,
                          int line) {
  BLUNT_ASSERT(line >= 0, "preamble line must be >= 0");
  lines_[{std::move(object_name), std::move(method)}] = line;
}

int PreambleMapping::line_for(const Operation& op) const {
  const auto it = lines_.find({op.object_name, op.method});
  return it == lines_.end() ? 0 : it->second;
}

int PreambleMapping::completion_cut(const Operation& op) const {
  const int line = line_for(op);
  if (line == 0) return op.call_pos + 1;  // ℓ0 is passed at the call
  int cut = op.ret_pos >= 0 ? op.ret_pos + 1 : std::numeric_limits<int>::max();
  for (const auto& [l, idx] : op.line_passes) {
    if (l >= line) cut = std::min(cut, idx + 1);
  }
  return cut;
}

bool PreambleMapping::op_complete(const Operation& op) const {
  return completion_cut(op) != std::numeric_limits<int>::max();
}

bool PreambleMapping::history_complete(const History& h) const {
  return std::all_of(h.ops().begin(), h.ops().end(),
                     [this](const Operation& op) { return op_complete(op); });
}

PrefixTree::PrefixTree(History root, std::string label) {
  nodes_.push_back({std::move(root), {}, std::move(label), -1});
}

int PrefixTree::add(History h, int parent, std::string label) {
  BLUNT_ASSERT(parent >= 0 && parent < size(), "bad parent " << parent);
  const int id = size();
  nodes_.push_back({std::move(h), {}, std::move(label), parent});
  nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

const PrefixTree::Node& PrefixTree::node(int i) const {
  BLUNT_ASSERT(i >= 0 && i < size(), "bad node " << i);
  return nodes_[static_cast<std::size_t>(i)];
}

namespace {

// Trace positions after which the history of a prefix changes: call, return,
// and line-pass actions.
std::vector<int> relevant_cuts(const History& full) {
  std::vector<int> cuts;
  for (const Operation& op : full.ops()) {
    cuts.push_back(op.call_pos + 1);
    if (op.ret_pos >= 0) cuts.push_back(op.ret_pos + 1);
    for (const auto& [l, idx] : op.line_passes) cuts.push_back(idx + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// Canonical encoding of a prefix history, used to merge identical prefixes
// of different executions into one tree node.
std::string encode_history(const History& h) {
  std::ostringstream os;
  for (const Operation& op : h.ops()) {
    os << op.id << ':' << op.call_pos << ':' << op.ret_pos << ':'
       << (op.result.has_value() ? sim::to_string(*op.result) : "?") << ':';
    for (const auto& [l, idx] : op.line_passes) os << l << '@' << idx << ',';
    os << ';';
  }
  return os.str();
}

}  // namespace

PrefixTree PrefixTree::chain_of(const History& full,
                                const PreambleMapping& pi) {
  // The prefix ending at `cut` is Π-complete exactly when every op called
  // before `cut` completes by `cut`; ops are sorted by call_pos, so one
  // running max over the called ops decides each cut before any copy.
  const std::vector<int> cuts = relevant_cuts(full);
  PrefixTree tree{History{}, "empty"};
  tree.nodes_.reserve(cuts.size() + 1);
  const std::vector<Operation>& ops = full.ops();
  std::size_t called = 0;
  int needed = 0;
  int parent = 0;
  for (const int cut : cuts) {
    for (; called < ops.size() && ops[called].call_pos < cut; ++called) {
      needed = std::max(needed, pi.completion_cut(ops[called]));
    }
    if (needed > cut) continue;
    parent = tree.add(full.prefix(cut), parent, "cut " + std::to_string(cut));
  }
  return tree;
}

namespace {

PrefixTree merge_impl(
    const std::vector<PrefixTree::TracedExecution>& execs,
    const PreambleMapping& pi) {
  PrefixTree tree{History{}, "empty"};
  // children_by_key[node] maps the child's merge key -> child node id.
  std::vector<std::map<std::string, int>> children_by_key(1);
  for (const PrefixTree::TracedExecution& exec : execs) {
    BLUNT_ASSERT(exec.history != nullptr, "merge of a null history");
    const History& full = *exec.history;
    // Rolling hashes of the trace prefix, when a trace is supplied: node
    // identity = history prefix AND literal execution prefix.
    std::vector<std::size_t> trace_hash;
    if (exec.trace != nullptr) {
      trace_hash.reserve(exec.trace->entries().size() + 1);
      trace_hash.push_back(0);
      std::size_t h = 0;
      for (const sim::TraceEntry& e : exec.trace->entries()) {
        std::ostringstream os;
        os << e;
        h = hash_combine(h, std::hash<std::string>{}(os.str()));
        trace_hash.push_back(h);
      }
    }
    int parent = 0;
    for (const int cut : relevant_cuts(full)) {
      History h = full.prefix(cut);
      if (!pi.history_complete(h)) continue;
      std::string key = encode_history(h);
      if (!trace_hash.empty()) {
        const std::size_t idx =
            std::min<std::size_t>(static_cast<std::size_t>(cut),
                                  trace_hash.size() - 1);
        key += '#' + std::to_string(trace_hash[idx]);
      }
      auto& kids = children_by_key[static_cast<std::size_t>(parent)];
      const auto it = kids.find(key);
      if (it != kids.end()) {
        parent = it->second;
        continue;
      }
      const int id =
          tree.add(std::move(h), parent, "cut " + std::to_string(cut));
      kids.emplace(std::move(key), id);
      children_by_key.emplace_back();
      parent = id;
    }
  }
  return tree;
}

}  // namespace

PrefixTree PrefixTree::merge(const std::vector<History>& executions,
                             const PreambleMapping& pi) {
  std::vector<TracedExecution> execs;
  execs.reserve(executions.size());
  for (const History& h : executions) execs.push_back({&h, nullptr});
  return merge_impl(execs, pi);
}

PrefixTree PrefixTree::merge_traced(const std::vector<TracedExecution>& execs,
                                    const PreambleMapping& pi) {
  for (const TracedExecution& e : execs) {
    BLUNT_ASSERT(e.trace != nullptr, "merge_traced needs traces");
  }
  return merge_impl(execs, pi);
}

namespace {

/// Open-addressed map from 64-bit keys to 32-bit values: the checker's order
/// trie and its failed memo. Keys are never ~0, the empty-slot sentinel.
/// Linear probing over a power-of-two table; no deletion.
class KeyTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  KeyTable() : slots_(kInitialSlots) {}

  /// The value stored under `key`, or kAbsent.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = start(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == key) return slots_[i].value;
      if (slots_[i].key == kEmpty) return kAbsent;
    }
  }

  /// Stores `value` under `key` unless the key is present; returns the
  /// key's value either way.
  std::uint32_t emplace(std::uint64_t key, std::uint32_t value) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();  // keep load < 0.7
    std::size_t i = start(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i] = {key, value};
    ++size_;
    return value;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t value = 0;
  };

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 256;

  [[nodiscard]] std::size_t start(std::uint64_t key) const {
    // splitmix64 finalizer.
    std::uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = start(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Depth-first search for a prefix-preserving linearization assignment, on
/// Wing–Gong's representation (lin/check.cpp): each distinct invocation of
/// the tree gets a dense index, each node its visible/returned masks and
/// per-op real-time-predecessor masks, and the committed linearization f so
/// far is a uint64 set plus an id in a trie of committed orders. The spec
/// state backtracks by undo (clone() for states that cannot undo).
///
/// The failed memo is keyed by (node, committed order). Every spec is
/// deterministic, so the order fixes each committed op's forced result and
/// the spec state: the key is equal exactly when the (node, committed
/// results, state) it replaces was.
class TreeChecker {
 public:
  TreeChecker(const PrefixTree& tree, const SequentialSpec& spec)
      : tree_(tree), state_(spec.initial()), undoable_(state_->undoable()) {
    const int nodes = tree_.size();
    for (int n = 0; n < nodes; ++n) {
      for (const Operation& op : tree_.node(n).h.ops()) ids_.push_back(op.id);
    }
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    m_ = static_cast<int>(ids_.size());
    BLUNT_ASSERT(m_ <= kMaxTreeInvocations,
                 "prefix tree too large for the bitmask checker: "
                     << m_ << " distinct invocations (cap "
                     << kMaxTreeInvocations << ")");
    const std::size_t cells =
        static_cast<std::size_t>(nodes) * static_cast<std::size_t>(m_);
    masks_.resize(static_cast<std::size_t>(nodes));
    op_.assign(cells, nullptr);
    pred_.assign(cells, 0);
    by_call_start_.reserve(static_cast<std::size_t>(nodes) + 1);
    std::vector<int> dense;
    for (int n = 0; n < nodes; ++n) {
      const History& h = tree_.node(n).h;
      Masks& nm = masks_[static_cast<std::size_t>(n)];
      by_call_start_.push_back(static_cast<std::uint32_t>(by_call_.size()));
      dense.clear();
      for (const Operation& op : h.ops()) {
        const int i = static_cast<int>(
            std::lower_bound(ids_.begin(), ids_.end(), op.id) - ids_.begin());
        BLUNT_ASSERT((nm.visible & bit(i)) == 0,
                     "invocation " << op.id << " appears twice in node " << n);
        nm.visible |= bit(i);
        if (!op.pending()) nm.returned |= bit(i);
        slot(op_, n, i) = &op;
        dense.push_back(i);
        by_call_.push_back(static_cast<std::uint8_t>(i));
      }
      // Op b's mask holds every op that returned before b was called: b is
      // minimal in the extension order exactly when pred & ~committed == 0.
      const std::vector<Operation>& ops = h.ops();
      for (std::size_t a = 0; a < ops.size(); ++a) {
        if (ops[a].pending()) continue;
        for (std::size_t b = 0; b < ops.size(); ++b) {
          if (a != b && ops[a].ret_pos < ops[b].call_pos) {
            slot(pred_, n, dense[b]) |= bit(dense[a]);
          }
        }
      }
    }
    by_call_start_.push_back(static_cast<std::uint32_t>(by_call_.size()));
    value_.resize(static_cast<std::size_t>(m_));
    cert_.assign(static_cast<std::size_t>(nodes), 0);
  }

  StrongCheckResult run() {
    StrongCheckResult res;
    res.ok = node_ok(0);
    if (res.ok) {
      res.linearizations.reserve(cert_.size());
      for (const std::uint32_t order : cert_) {
        res.linearizations.push_back(order_ids(order));
      }
    } else {
      res.failing_node = deepest_failure_;
      std::ostringstream os;
      os << "no prefix-preserving linearization; deepest failing node "
         << deepest_failure_;
      if (deepest_failure_ >= 0) {
        os << " (" << tree_.node(deepest_failure_).label << "):\n"
           << tree_.node(deepest_failure_).h.to_string();
      }
      res.detail = os.str();
    }
    return res;
  }

 private:
  struct Masks {
    std::uint64_t visible = 0;   // ops of the node's history
    std::uint64_t returned = 0;  // ops that returned in it
  };

  static std::uint64_t bit(int i) { return std::uint64_t{1} << i; }

  template <typename T>
  T& slot(std::vector<T>& table, int n, int i) {
    return table[static_cast<std::size_t>(n) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(i)];
  }

  // Entering node `n` with its parent's linearization: validate committed
  // results against newly-visible returns, then extend.
  bool node_ok(int n) {
    const Masks& nm = masks_[static_cast<std::size_t>(n)];
    const std::uint64_t missing = committed_ & ~nm.visible;
    BLUNT_ASSERT(missing == 0,
                 "committed op " << ids_[static_cast<std::size_t>(
                                        std::countr_zero(missing))]
                                 << " missing from descendant node " << n);
    for (std::uint64_t r = committed_ & nm.returned; r != 0; r &= r - 1) {
      const int i = std::countr_zero(r);
      if (!(value_[static_cast<std::size_t>(i)] == *slot(op_, n, i)->result)) {
        note_failure(n);
        return false;  // early-committed result contradicted by this branch
      }
    }
    return extend(n);
  }

  // Extends the committed order at node `n` until every returned op is
  // linearized, then descends into all children. Returns true with the
  // successful extension still committed; the caller rolls it back.
  bool extend(int n) {
    const std::uint64_t key = (static_cast<std::uint64_t>(n) << 32) | order_;
    if (failed_.find(key) != KeyTable::kAbsent) return false;
    const Masks& nm = masks_[static_cast<std::size_t>(n)];

    if ((nm.returned & ~committed_) == 0) {
      const std::vector<int>& children = tree_.node(n).children;
      const std::uint32_t entry = order_;
      bool all_children_ok = true;
      for (const int child : children) {
        const bool ok = node_ok(child);
        rollback(entry);
        if (!ok) {
          all_children_ok = false;
          break;
        }
      }
      if (all_children_ok) {
        cert_[static_cast<std::size_t>(n)] = order_;
        return true;
      }
      // One-child rule. Every op left to commit here is pending, and each
      // is visible in the only child with the same real-time predecessors.
      // Whatever extension of this order could still pass, the child
      // already tried from this order itself, under the same memo key, and
      // failed; so committing a pending op early here cannot pass either.
      if (children.size() == 1) return fail(n, key);
    }

    // Try appending a linearizable candidate (returned ops first), in the
    // node's call order.
    const std::uint32_t first = by_call_start_[static_cast<std::size_t>(n)];
    const std::uint32_t last = by_call_start_[static_cast<std::size_t>(n) + 1];
    for (const bool want_returned : {true, false}) {
      for (std::uint32_t c = first; c < last; ++c) {
        const int i = by_call_[c];
        if ((committed_ & bit(i)) != 0) continue;
        if (((nm.returned & bit(i)) != 0) != want_returned) continue;
        if ((slot(pred_, n, i) & ~committed_) != 0) continue;
        const Operation& op = *slot(op_, n, i);
        sim::Value forced = state_->result_of(op);
        if (want_returned && !(forced == *op.result)) continue;
        commit(i, op, std::move(forced));
        if (extend(n)) return true;
        uncommit();
      }
    }
    return fail(n, key);
  }

  // Appends op `i` (the node's `op`) with its spec-forced result.
  void commit(int i, const Operation& op, sim::Value forced) {
    if (undoable_) {
      state_->apply_undoable(op);
    } else {
      saved_.push_back(state_->clone());
      state_->apply(op);
    }
    value_[static_cast<std::size_t>(i)] = std::move(forced);
    committed_ |= bit(i);
    const auto fresh = static_cast<std::uint32_t>(order_parent_.size());
    const std::uint32_t next =
        trie_.emplace((static_cast<std::uint64_t>(order_) << 6) |
                          static_cast<std::uint64_t>(i),
                      fresh);
    if (next == fresh) {
      order_parent_.push_back(order_);
      order_op_.push_back(static_cast<std::uint8_t>(i));
    }
    order_ = next;
  }

  // Removes the last committed op.
  void uncommit() {
    committed_ &= ~bit(order_op_[order_]);
    order_ = order_parent_[order_];
    if (undoable_) {
      state_->undo();
    } else {
      state_ = std::move(saved_.back());
      saved_.pop_back();
    }
  }

  // Uncommits back to `order`, a prefix of the committed order.
  void rollback(std::uint32_t order) {
    while (order_ != order) uncommit();
  }

  bool fail(int n, std::uint64_t key) {
    failed_.emplace(key, 0);
    note_failure(n);
    return false;
  }

  // The invocation ids of the committed order with trie id `order`.
  [[nodiscard]] std::vector<InvocationId> order_ids(std::uint32_t order) const {
    std::vector<InvocationId> ids;
    for (; order != 0; order = order_parent_[order]) {
      ids.push_back(ids_[order_op_[order]]);
    }
    std::reverse(ids.begin(), ids.end());
    return ids;
  }

  void note_failure(int n) { deepest_failure_ = std::max(deepest_failure_, n); }

  const PrefixTree& tree_;
  // Per tree: dense index -> invocation id, and per node (row n * m_ of the
  // flat tables) the op and predecessor mask of each dense index, plus its
  // ops' dense indices in call order.
  std::vector<InvocationId> ids_;
  int m_ = 0;
  std::vector<Masks> masks_;
  std::vector<const Operation*> op_;
  std::vector<std::uint64_t> pred_;
  std::vector<std::uint8_t> by_call_;
  std::vector<std::uint32_t> by_call_start_;
  // Search state: the committed set, its order (an id in the trie of
  // committed orders; 0 is the empty order) and the spec state after it.
  std::unique_ptr<SpecState> state_;
  bool undoable_;
  std::vector<std::unique_ptr<SpecState>> saved_;  // clone fallback only
  std::uint64_t committed_ = 0;
  std::uint32_t order_ = 0;
  std::vector<sim::Value> value_;  // committed result per dense index
  std::vector<std::uint32_t> order_parent_{0};
  std::vector<std::uint8_t> order_op_{0};
  KeyTable trie_;    // (parent order << 6 | op) -> order
  KeyTable failed_;  // (node << 32 | order) of failed extends
  std::vector<std::uint32_t> cert_;  // per node: order of its last success
  int deepest_failure_ = -1;
};

}  // namespace

StrongCheckResult check_prefix_tree(const PrefixTree& tree,
                                    const SequentialSpec& spec) {
  return TreeChecker(tree, spec).run();
}

StrongCheckResult check_prefix_chain(const History& full,
                                     const SequentialSpec& spec,
                                     const PreambleMapping& pi) {
  return check_prefix_tree(PrefixTree::chain_of(full, pi), spec);
}

}  // namespace blunt::lin
