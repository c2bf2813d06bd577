// Strong and tail strong linearizability checking (Sections 2.2 and 3).
//
// Strong linearizability asks for a PREFIX-PRESERVING map f from executions
// to linearizations. Tail strong linearizability (the paper's new notion)
// asks the same only for executions *complete w.r.t. a preamble mapping Π* —
// executions in which every invocation has passed its preamble-end control
// point Π(M).
//
// The checker works on a *prefix tree* of executions: each node is a
// Π-complete execution (represented by its history), children extend their
// parent. It searches for an assignment of linearizations to nodes such that
// every node's linearization (a) linearizes the node's history, and (b)
// extends its parent's by appending only. Failure on a tree refutes (tail)
// strong linearizability of the object — the tree's executions are all
// executions of the object and f would have to be defined consistently on
// them. Success proves the property restricted to the supplied tree (the
// full property quantifies over all executions; tests use targeted trees
// plus randomized soaks).
//
// When a pending operation is linearized early, the spec's forced result is
// committed; if the operation later returns (in a descendant node, possibly
// with different values on different branches), the committed result must
// match — this is exactly the mechanism behind the Golab–Higham–Woelfel-style
// counterexamples, and the checker reproduces them (see tests).
//
// The search runs on Wing–Gong's representation (DESIGN.md §8): a tree may
// hold at most kMaxTreeInvocations (64) distinct invocation ids, and more
// aborts with a message. A "yes" carries its certificate: each node's
// linearization, which lin::validate_linearization can re-check against the
// node's history, each child's extending its parent's.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lin/history.hpp"
#include "lin/spec.hpp"

namespace blunt::lin {

/// A preamble mapping Π (Section 3): for each (object name, method), the
/// control point ending the preamble. Line 0 denotes the initial control
/// point ℓ0 (passed at the call), so a method absent from the map has the
/// trivial preamble — Π0 everywhere is exactly strong linearizability.
class PreambleMapping {
 public:
  PreambleMapping() = default;

  static PreambleMapping trivial() { return {}; }

  void set(std::string object_name, std::string method, int line);
  [[nodiscard]] int line_for(const Operation& op) const;

  /// Is `op` past its preamble in the history it came from? (Returned ops
  /// always are; otherwise a recorded line-pass ≥ Π(M) is required.)
  [[nodiscard]] bool op_complete(const Operation& op) const;

  /// The least cut at which `op` is complete in History::prefix(cut): one
  /// past its call under ℓ0, else one past its return or its first
  /// line-pass ≥ Π(M), whichever is earlier; INT_MAX if neither happens.
  [[nodiscard]] int completion_cut(const Operation& op) const;

  /// Is the execution with history `h` complete w.r.t. Π?
  [[nodiscard]] bool history_complete(const History& h) const;

 private:
  std::map<std::pair<std::string, std::string>, int> lines_;
};

/// A tree of Π-complete execution prefixes.
class PrefixTree {
 public:
  /// Creates the tree with a root execution (often the empty history).
  explicit PrefixTree(History root, std::string label = "root");

  /// Adds an execution extending node `parent`; returns the new node id.
  int add(History h, int parent, std::string label = "");

  struct Node {
    History h;
    std::vector<int> children;
    std::string label;
    int parent = -1;
  };

  [[nodiscard]] const Node& node(int i) const;
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }

  /// Builds the chain of all Π-complete prefixes of one execution, cut after
  /// every call/return/line-pass action. This is the per-execution necessary
  /// condition for (tail) strong linearizability.
  static PrefixTree chain_of(const History& full, const PreambleMapping& pi);

  /// Merges several executions into a tree, keeping only Π-complete cuts.
  /// Nodes are shared between executions only while their HISTORY prefixes
  /// coincide. CAUTION: for executions of a real object this can over-merge
  /// (two executions whose internal states already diverged may still have
  /// equal history prefixes, and strong linearizability does not require f
  /// to agree on them) — sound for synthetic trees where the history IS the
  /// execution; for recorded runs use merge_traced.
  static PrefixTree merge(const std::vector<History>& executions,
                          const PreambleMapping& pi);

  /// One recorded execution: its history plus the trace it came from.
  struct TracedExecution {
    const History* history = nullptr;
    const sim::Trace* trace = nullptr;
  };

  /// Sound merge for recorded executions: nodes are shared only while the
  /// underlying TRACES are identical up to the cut, i.e. the executions
  /// really are the same execution so far. This is the merge to use when
  /// refuting strong linearizability from real runs.
  static PrefixTree merge_traced(const std::vector<TracedExecution>& execs,
                                 const PreambleMapping& pi);

 private:
  std::vector<Node> nodes_;
};

/// The most distinct invocation ids one prefix tree may hold: the checker
/// keeps committed sets and predecessor sets as uint64 masks.
inline constexpr int kMaxTreeInvocations = 64;

struct StrongCheckResult {
  bool ok = false;
  /// For failures: the node at which no consistent extension exists.
  int failing_node = -1;
  std::string detail;
  /// On success, the certificate: per node (indexed like the tree), its
  /// linearization as invocation ids in order, from the search's final
  /// successful pass. Each linearizes its node's history, and each child's
  /// starts with its parent's. Empty on failure.
  std::vector<std::vector<InvocationId>> linearizations;
};

/// Searches for a prefix-preserving linearization assignment over the tree.
/// The tree may hold at most kMaxTreeInvocations distinct invocation ids
/// (more aborts with a message).
[[nodiscard]] StrongCheckResult check_prefix_tree(const PrefixTree& tree,
                                                  const SequentialSpec& spec);

/// Convenience: chain check of a single execution.
[[nodiscard]] StrongCheckResult check_prefix_chain(const History& full,
                                                   const SequentialSpec& spec,
                                                   const PreambleMapping& pi);

}  // namespace blunt::lin
