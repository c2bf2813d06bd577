// Sequential specifications (Section 2.2), given as deterministic state
// machines: from any state, a method invocation has exactly one legal result
// (`result_of`) and a deterministic effect (`apply`). Both the register and
// snapshot specs are deterministic, which lets the checkers compute the
// forced return value when linearizing a pending operation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "lin/history.hpp"
#include "sim/value.hpp"

namespace blunt::lin {

class SpecState {
 public:
  virtual ~SpecState() = default;

  [[nodiscard]] virtual std::unique_ptr<SpecState> clone() const = 0;

  /// The unique legal result of `op` from this state (deterministic spec).
  [[nodiscard]] virtual sim::Value result_of(const Operation& op) const = 0;

  /// Applies the operation's effect.
  virtual void apply(const Operation& op) = 0;

  /// 64-bit hash of the state — Wing–Gong's memo key component
  /// (lin/check.cpp). Equal states must hash equally.
  [[nodiscard]] virtual std::uint64_t hash() const = 0;

  // -- Undo hooks for the checkers' backtracking (lin/check.cpp,
  // lin/strong.cpp) --

  /// A state supporting cheap in-place reversal returns true and implements
  /// apply_undoable()/undo() as exact inverses; the checker then never
  /// clones on a DFS edge. States without a cheap inverse (the queue's Deq
  /// discards its front) keep the clone() fallback.
  [[nodiscard]] virtual bool undoable() const { return false; }

  /// Like apply(), but records enough to reverse the effect with undo().
  /// Called only when undoable(); calls nest LIFO (one undo() per apply).
  virtual void apply_undoable(const Operation& op) { apply(op); }

  /// Reverses the most recent un-undone apply_undoable().
  virtual void undo();
};

class SequentialSpec {
 public:
  virtual ~SequentialSpec() = default;
  [[nodiscard]] virtual std::unique_ptr<SpecState> initial() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Read/write register over Value; methods "Read" (arg ⊥, returns current
/// value) and "Write" (arg v, returns ⊥). Initial value configurable
/// (Algorithm 1 initializes R to ⊥ and C to −1).
class RegisterSpec final : public SequentialSpec {
 public:
  explicit RegisterSpec(sim::Value initial = sim::Value{})
      : initial_(std::move(initial)) {}

  [[nodiscard]] std::unique_ptr<SpecState> initial() const override;
  [[nodiscard]] std::string name() const override { return "register"; }

 private:
  sim::Value initial_;
};

/// FIFO queue over int64; methods "Enq" (arg v, returns ⊥) and "Deq"
/// (returns the front element; test workloads never dequeue from an empty
/// queue, so the deterministic spec asserts non-emptiness). Used by the
/// Herlihy–Wing-style queue prototype (Section 7 future work).
class QueueSpec final : public SequentialSpec {
 public:
  [[nodiscard]] std::unique_ptr<SpecState> initial() const override;
  [[nodiscard]] std::string name() const override { return "queue"; }
};

/// Single-writer-per-segment snapshot over int64 segments; methods "Update"
/// (arg v, writes the caller's segment, returns ⊥) and "Scan" (returns the
/// vector of all segments). Matches the Afek et al. object of Section 5.2.
class SnapshotSpec final : public SequentialSpec {
 public:
  SnapshotSpec(int segments, std::int64_t initial = 0)
      : segments_(segments), initial_(initial) {}

  [[nodiscard]] std::unique_ptr<SpecState> initial() const override;
  [[nodiscard]] std::string name() const override { return "snapshot"; }

 private:
  int segments_;
  std::int64_t initial_;
};

}  // namespace blunt::lin
