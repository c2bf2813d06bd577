// Exact adversary-vs-coin game solving.
//
// Prob[P(O) → B] (Section 2.4) is a supremum over strong adversaries of a
// probability over coin flips — operationally a max-expectation game: the
// adversary owns scheduling nodes (value = max over moves), nature owns coin
// nodes (value = uniform average), terminals score 1 when the outcome lies
// in B. For finite-state models this value is computable exactly by memoized
// DFS over (copyable, canonically-encoded) states — which is why game models
// are written as explicit state machines (src/game/*_game.*) rather than on
// the coroutine simulator, whose frames cannot be copied.
//
// The strong-adversary information constraint (schedules may depend on past
// coins only) is inherent in the tree structure: a chance node's children
// subtrees may differ per outcome, but nothing above the node can.
//
// States are fixed-width byte strings: every state of one model has the
// width of its initial state. Each model encodes a trivially copyable struct
// byte for byte (state_bytes / state_from_bytes below).
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/rational.hpp"

namespace blunt::game {

/// One expanded game node. The solver keeps one per search depth and reuses
/// it: successors are appended to one flat byte buffer, and each label is
/// built only when the expansion was created with labels on (a requested
/// line of play); the search itself never builds one.
class Expansion {
 public:
  enum class Kind { kTerminal, kAdversary, kChance };

  explicit Expansion(bool with_labels = false) : with_labels_(with_labels) {}

  Kind kind = Kind::kTerminal;
  /// Terminal payoff (probability mass of "bad"): usually 0 or 1.
  Rational terminal_value;

  /// Appends a successor. Adversary: max over successors. Chance: uniform
  /// average over them. `label()` returns its human-readable move label and
  /// runs only when labels are on.
  template <class Label>
  void add(std::string_view state, Label&& label) {
    append(state);
    if (with_labels_) labels_.emplace_back(label());
  }
  void add(std::string_view state) {
    append(state);
    if (with_labels_) labels_.emplace_back();
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Successor i. The view aliases this expansion's buffer: it is valid
  /// until the next clear().
  [[nodiscard]] std::string_view next(std::size_t i) const {
    return {bytes_.data() + i * width_, width_};
  }
  /// Successor i's label (empty when the model gave none). Labels must be
  /// on.
  [[nodiscard]] const std::string& label(std::size_t i) const {
    BLUNT_ASSERT(with_labels_, "Expansion built without labels");
    return labels_[i];
  }

  /// Resets to an empty terminal node, keeping the buffers' capacity.
  void clear() {
    kind = Kind::kTerminal;
    terminal_value = Rational();
    bytes_.clear();
    labels_.clear();
    count_ = 0;
  }

 private:
  void append(std::string_view state) {
    if (count_ == 0) width_ = state.size();
    BLUNT_ASSERT(state.size() == width_,
                 "successor states differ in width: " << state.size()
                                                      << " vs " << width_);
    bytes_.insert(bytes_.end(), state.begin(), state.end());
    ++count_;
  }

  bool with_labels_;
  std::vector<char> bytes_;
  std::vector<std::string> labels_;
  std::size_t width_ = 0;
  std::size_t count_ = 0;
};

/// A game model over fixed-width, canonically-encoded states. Encodings must
/// be injective: equal bytes == equal states.
class GameModel {
 public:
  virtual ~GameModel() = default;

  /// The root state; the view stays valid for the model's lifetime.
  [[nodiscard]] virtual std::string_view initial() const = 0;
  /// Describes `state` in `out`, which the caller has cleared.
  virtual void expand(std::string_view state, Expansion& out) const = 0;
};

/// The bytes of a trivially copyable state without padding, as a model's
/// canonical encoding.
template <class State>
[[nodiscard]] std::string_view state_bytes(const State& s) {
  static_assert(std::is_trivially_copyable_v<State>);
  static_assert(std::has_unique_object_representations_v<State>,
                "state encodings must have no padding bytes");
  return {reinterpret_cast<const char*>(&s), sizeof(State)};
}

/// Inverse of state_bytes.
template <class State>
[[nodiscard]] State state_from_bytes(std::string_view bytes) {
  static_assert(std::is_trivially_copyable_v<State>);
  BLUNT_ASSERT(bytes.size() == sizeof(State),
               "state of " << bytes.size() << " bytes, expected "
                           << sizeof(State));
  State s;
  std::memcpy(&s, bytes.data(), sizeof(State));
  return s;
}

struct SolveStats {
  std::size_t states_visited = 0;   // distinct memoized states
  std::size_t expansions = 0;       // expand() calls
  int max_depth = 0;
};

/// One edge of an optimal adversary line of play (see solve).
struct StrategyEdge {
  std::string label;
  bool chance = false;
  int outcome = -1;  // chance branch index
  Rational value;    // subtree value
};

/// Exact value of the game: sup over adversary strategies of the expected
/// terminal payoff. The state graph must be acyclic (each model guarantees
/// progress); reaching a state whose value is still being computed fails
/// with an assertion naming the cycle.
///
/// When `line` is given, it receives one (of possibly several) optimal
/// adversary lines of play of at most `max_edges` edges, read from this
/// solve's memo: from the root, follow the first argmax move at adversary
/// nodes and the first outcome at chance nodes, reporting move labels.
/// Useful to print the extracted adversary strategy (e.g. the Figure 1
/// schedule falls out of the k=1 ABD game).
[[nodiscard]] Rational solve(const GameModel& model,
                             SolveStats* stats = nullptr,
                             std::vector<StrategyEdge>* line = nullptr,
                             int max_edges = 200);

}  // namespace blunt::game
