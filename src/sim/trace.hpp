// Execution traces: the totally ordered record of everything that happened
// in a simulation run.
//
// A trace entry is finer-grained than a scheduler step: one scheduler step
// (e.g. a message delivery whose handler sends replies) may append several
// entries, each with its own monotonically increasing index. Call and return
// actions of object method invocations are entries too; the lin module
// projects them out to build histories (Section 2.1: hist(e) is the
// projection of e onto call and return actions).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/value.hpp"

namespace blunt::sim {

/// Whether the World materializes the execution record. Both levels
/// number the SAME entries in the SAME order — the dense entry index (and
/// therefore every call_pos / ret_pos / line-pass position the lin module
/// consumes) is identical at both; only whether entries are stored varies.
/// Monte-Carlo soaks run at kNone, where the hot path formats and stores
/// nothing; replay tooling (scripted adversaries, the explorer, the shrinker)
/// matches on formatted `what` labels and needs kFull.
enum class TraceDetail {
  kNone,  // count entries only: no storage, no formatted strings
  kFull,  // store everything (the historical default; byte-identical traces)
};

enum class StepKind {
  kSpawn,          // process creation
  kLocal,          // local computation step
  kRegisterRead,   // base-register read (shared-memory substrate)
  kRegisterWrite,  // base-register write
  kSend,           // message handed to the network
  kDeliver,        // message delivered; recipient handler ran
  kRandom,         // random(V) sampled a value
  kWaitResume,     // a blocked process resumed (its wait predicate held)
  kCall,           // method invocation call action
  kReturn,         // method invocation return action
  kCrash,          // process crashed
  kFault,          // injected fault (message lost/duplicated, partition
                   // opened/healed) — appended by the fault layer
  kTick,           // scheduler time advanced with no other effect (offered
                   // while step-indexed faults are pending)
};

/// Number of StepKind alternatives (metrics arrays index by kind).
inline constexpr int kNumStepKinds = static_cast<int>(StepKind::kTick) + 1;

[[nodiscard]] const char* to_string(StepKind k);

struct TraceEntry {
  int index = 0;          // position in the trace (dense, 0-based)
  int sched_step = 0;     // scheduler step this entry belongs to
  Pid pid = -1;           // acting process
  StepKind kind = StepKind::kLocal;
  std::string what;       // free-form description (control point, message, ..)
  InvocationId inv = -1;  // owning invocation, -1 for program-level steps
  Value value;            // payload: value read/written/drawn/delivered
};

std::ostream& operator<<(std::ostream& os, const TraceEntry& e);

/// Full record of one method invocation: identity (Section 2.3's outcome
/// identifiers are (pid, op sequence number per process)), call/return
/// positions, and the control-point progress needed by the tail-strong-
/// linearizability checker (the maximum preamble line passed).
struct InvocationRecord {
  InvocationId id = -1;
  Pid pid = -1;
  int object_id = -1;        // which shared object (World-assigned)
  std::string object_name;
  std::string method;        // "Read", "Write", "Scan", "Update", ...
  Value argument;
  std::optional<Value> result;   // empty = pending at end of execution
  int call_index = -1;           // trace index of the call action
  int return_index = -1;         // trace index of the return action, -1 pending
  int call_sched_step = -1;      // scheduler step of the call action (latency
                                 // metrics; independent of trace storage)
  int per_process_seq = -1;      // how many invocations this pid made before
  int max_line_passed = -1;      // highest control point recorded via mark_line
  // (control point, trace index at which it was passed), in pass order. The
  // tail-strong-linearizability checker uses these to decide, for each trace
  // prefix, whether the invocation has completed its preamble (Section 3's
  // "i passed control point ℓ").
  std::vector<std::pair<int, int>> line_passes;

  /// First trace index at which this invocation had passed `line`, or -1.
  [[nodiscard]] int passed_line_at(int line) const {
    for (const auto& [l, idx] : line_passes) {
      if (l >= line) return idx;
    }
    return -1;
  }
};

class Trace {
 public:
  int append(TraceEntry e);  // fills index, returns it
  /// Index-only form of append for detail levels that store nothing: bumps
  /// the dense index without materializing a TraceEntry. Callers use
  /// `recording() ? append({...}) : skip()` so index numbering is identical
  /// at every TraceDetail level.
  int skip() { return next_index_++; }
  void set_sched_step(int s) { sched_step_ = s; }
  [[nodiscard]] int sched_step() const { return sched_step_; }

  void set_detail(TraceDetail d) { detail_ = d; }
  [[nodiscard]] TraceDetail detail() const { return detail_; }
  /// Whether entries, `what` labels included, are stored (kFull). Sites
  /// format a label only inside a recording() branch, so kNone pays no
  /// string cost on the step path.
  [[nodiscard]] bool recording() const { return detail_ != TraceDetail::kNone; }

  [[nodiscard]] const std::vector<TraceEntry>& entries() const {
    return entries_;
  }
  /// Number of entries appended (counts skipped entries at kNone, so the
  /// value matches entries().size() whenever recording()).
  [[nodiscard]] int size() const { return next_index_; }

  /// Pretty-print the whole trace (tests and examples).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<TraceEntry> entries_;
  TraceDetail detail_ = TraceDetail::kFull;
  int next_index_ = 0;
  int sched_step_ = 0;
};

}  // namespace blunt::sim
