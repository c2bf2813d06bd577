// Deterministic, opt-in profiling: subsystem cost attribution for the
// simulator and its satellites (DESIGN.md §12).
//
// Two kinds of measurement live side by side in one ProfileSnapshot:
//
//   * EXACT WORK COUNTERS (events scanned, quorum-map touches, memo
//     probes/hits, bytes allocated, ...) — pure functions of the executed
//     trials, so they merge bit-identically across --threads N. All but the
//     allocation tallies, which also count the standard library's own
//     allocations, are gated like any other exact metric.
//   * ADVISORY PHASE TIMERS (scoped RAII, steady_clock) — wall-clock cost
//     per subsystem, arranged in a fixed hierarchy for flamegraph export.
//     Timings are advisory exactly like the engine's timings_ms: two runs
//     of the same work never produce the same nanoseconds, so they are
//     excluded from every bit-identity contract (the determinism tests
//     compare ns-zeroed dumps).
//
// This header is deliberately header-only, exactly like obs/metrics.hpp:
// blunt_sim instruments itself with it without a sim -> obs link edge. The
// JSON/flamegraph exporters (and the operator-new counting hook) live in
// blunt_obs (obs/prof_export.*).
//
// Determinism discipline: a World owns its Profiler only when
// Config::profile is set; every instrumentation site is gated on a nullable
// pointer (`if (prof_)` — one predictable branch when off), and no
// instrumentation ever influences an adversary choice, a coin draw, or an
// event order. Profiling off IS the pre-profiling code path.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace blunt::obs {

// ---------------------------------------------------------------------------
// Phase hierarchy

/// Subsystem phases. The hierarchy is STATIC (each phase has one fixed
/// parent) so collapsed-stack export needs no per-sample stack walking; a
/// phase that can run under several dynamic parents (kQuorum fires from
/// message handlers AND from park-time/wake-hint predicate polls) is
/// attributed to its dominant site, documented per phase.
enum class Phase : int {
  kRun = 0,              // World::run adversary loop (root)
  kEnabledScan,          //   enabled-event enumeration (scheduler scan)
  kAdversaryChoice,      //   Adversary::choose
  kCoverageFingerprint,  //     schedule fingerprinting (coverage layer)
  kExecute,              //   one chosen event's execution
  kNetDelivery,          //     message delivery + handler
  kQuorum,               //       ABD quorum bookkeeping (dominant: handlers)
  kLinCheck,             // Wing–Gong linearizability check (root)
};

inline constexpr int kNumPhases = 8;

[[nodiscard]] constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kRun: return "run";
    case Phase::kEnabledScan: return "enabled_scan";
    case Phase::kQuorum: return "quorum";
    case Phase::kAdversaryChoice: return "adversary_choice";
    case Phase::kCoverageFingerprint: return "coverage_fingerprint";
    case Phase::kExecute: return "execute";
    case Phase::kNetDelivery: return "net_delivery";
    case Phase::kLinCheck: return "lin_check";
  }
  return "?";
}

/// Parent index, -1 for roots. Collapsed-stack paths are read off this
/// table; self time = inclusive ns minus the children's inclusive ns.
[[nodiscard]] constexpr int phase_parent(Phase p) {
  switch (p) {
    case Phase::kRun: return -1;
    case Phase::kEnabledScan: return static_cast<int>(Phase::kRun);
    case Phase::kAdversaryChoice: return static_cast<int>(Phase::kRun);
    case Phase::kCoverageFingerprint:
      return static_cast<int>(Phase::kAdversaryChoice);
    case Phase::kExecute: return static_cast<int>(Phase::kRun);
    case Phase::kNetDelivery: return static_cast<int>(Phase::kExecute);
    case Phase::kQuorum: return static_cast<int>(Phase::kNetDelivery);
    case Phase::kLinCheck: return -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Exact work counters

enum class ProfCounter : int {
  kEventsScanned = 0,   // per-event enable-status evaluations: wait-predicate
                        // polls, entries rebuilt on a source re-enumeration,
                        // and incremental enabled-index insert/replace/erase
                        // ops. With the incremental index this is O(state
                        // changes) per step, not O(enabled-list length); the
                        // pre-overhaul kernel recomputed every entry every
                        // step, so the old value was the enabled-list total.
  kStepsExecuted,       // events executed (== sched steps)
  kDeliveries,          // message deliveries executed
  kQuorumTouches,       // ABD quorum bookkeeping probes/inserts
  kMemoProbes,          // Wing–Gong failed-node memo lookups
  kMemoHits,            // ... that hit
  kFingerprintHashes,   // coverage fingerprint hash updates
  kBytesAllocated,      // operator-new bytes inside the run loop (hooked)
  kAllocCalls,          // operator-new calls inside the run loop (hooked)
  kIndexUpdates,        // mutations applied to the incremental enabled-index
                        // (resume-region ops, delivery-cache pushes/rebuild
                        // entries, crash-region ops)
  kPredPollsAvoided,    // blocked processes NOT re-polled on a scan (the
                        // polls the pre-overhaul kernel performed)
};

inline constexpr int kNumCounters = 11;

[[nodiscard]] constexpr const char* counter_name(ProfCounter c) {
  switch (c) {
    case ProfCounter::kEventsScanned: return "events_scanned";
    case ProfCounter::kStepsExecuted: return "steps_executed";
    case ProfCounter::kDeliveries: return "deliveries";
    case ProfCounter::kQuorumTouches: return "quorum_touches";
    case ProfCounter::kMemoProbes: return "memo_probes";
    case ProfCounter::kMemoHits: return "memo_hits";
    case ProfCounter::kFingerprintHashes: return "fingerprint_hashes";
    case ProfCounter::kBytesAllocated: return "bytes_allocated";
    case ProfCounter::kAllocCalls: return "alloc_calls";
    case ProfCounter::kIndexUpdates: return "index_updates";
    case ProfCounter::kPredPollsAvoided: return "pred_polls_avoided";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Snapshot

struct PhaseStat {
  std::int64_t calls = 0;
  std::int64_t ns = 0;  // inclusive wall time — ADVISORY, never gated
};

/// One run's (or one merged shard prefix's) profile. Merging is element-wise
/// addition, which is exact and order-insensitive for calls and counters;
/// the engine still folds shards in ascending order so even the advisory ns
/// sums are reproducible for a fixed set of per-shard snapshots.
struct ProfileSnapshot {
  std::array<PhaseStat, kNumPhases> phases{};
  std::array<std::int64_t, kNumCounters> counters{};

  void merge(const ProfileSnapshot& o) {
    for (int i = 0; i < kNumPhases; ++i) {
      phases[static_cast<std::size_t>(i)].calls +=
          o.phases[static_cast<std::size_t>(i)].calls;
      phases[static_cast<std::size_t>(i)].ns +=
          o.phases[static_cast<std::size_t>(i)].ns;
    }
    for (int i = 0; i < kNumCounters; ++i) {
      counters[static_cast<std::size_t>(i)] +=
          o.counters[static_cast<std::size_t>(i)];
    }
  }

  [[nodiscard]] std::int64_t counter(ProfCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const PhaseStat& phase(Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] bool empty() const {
    for (const PhaseStat& s : phases) {
      if (s.calls != 0 || s.ns != 0) return false;
    }
    for (const std::int64_t c : counters) {
      if (c != 0) return false;
    }
    return true;
  }

  /// Drops the advisory wall-clock component, keeping calls and counters.
  /// The engine's bit-identity tests compare snapshots through this.
  void zero_advisory_ns() {
    for (PhaseStat& s : phases) s.ns = 0;
  }

  friend bool operator==(const ProfileSnapshot& a, const ProfileSnapshot& b) {
    for (int i = 0; i < kNumPhases; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (a.phases[idx].calls != b.phases[idx].calls) return false;
      if (a.phases[idx].ns != b.phases[idx].ns) return false;
    }
    return a.counters == b.counters;
  }
};

// ---------------------------------------------------------------------------
// Profiler + RAII scope

/// The per-World sink. Never shared across threads: each trial's World owns
/// its own Profiler, and the engine merges resulting snapshots shard-by-
/// shard exactly like metrics registries.
class Profiler {
 public:
  [[nodiscard]] PhaseStat& stat(Phase p) {
    return snap_.phases[static_cast<std::size_t>(p)];
  }
  void count(ProfCounter c, std::int64_t delta = 1) {
    snap_.counters[static_cast<std::size_t>(c)] += delta;
  }
  [[nodiscard]] const ProfileSnapshot& snapshot() const { return snap_; }
  [[nodiscard]] ProfileSnapshot& snapshot() { return snap_; }

 private:
  ProfileSnapshot snap_;
};

/// Null-safe scoped phase timer: with a null profiler the constructor and
/// destructor are a single branch each (the disabled hot path reads no
/// clock and touches no state).
class ScopedPhase {
 public:
  ScopedPhase(Profiler* prof, Phase p) : prof_(prof) {
    if (prof_ != nullptr) {
      stat_ = &prof_->stat(p);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedPhase() {
    if (prof_ != nullptr) {
      stat_->calls += 1;
      stat_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* prof_;
  PhaseStat* stat_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Allocation counting

/// Target of the global operator-new counting hook (obs/prof_export.cpp).
/// The hook only fires in binaries that link blunt_obs; elsewhere the
/// tallies simply stay zero, which is harmless (the counter reads 0, it is
/// never compared against a hooked binary's report).
struct AllocTally {
  std::int64_t bytes = 0;
  std::int64_t calls = 0;
};

/// The innermost active tally on this thread (scopes replace, not nest:
/// only the innermost AllocScope counts, so a run-loop scope is never
/// double-billed by a nested measurement).
inline thread_local AllocTally* tls_alloc_tally = nullptr;

class AllocScope {
 public:
  explicit AllocScope(AllocTally* tally) : prev_(tls_alloc_tally) {
    tls_alloc_tally = tally;
  }
  ~AllocScope() { tls_alloc_tally = prev_; }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocTally* prev_;
};

}  // namespace blunt::obs
