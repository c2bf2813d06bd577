// Execution fingerprinting: turning one simulator run into a handful of
// 64-bit coverage fingerprints (see obs/coverage.hpp for the set they feed).
//
// Three fingerprint families, all computable at trace_detail = kNone — they
// read only what the kernel keeps on the zero-allocation hot path (the
// adversary's chosen events and the always-recorded invocation table), never
// the materialized trace:
//
//   schedule   — one hash over the whole chosen-event sequence (kind, pid,
//                source, message of every choice, in order). Two runs share
//                it iff the adversary made the same choices over the same
//                enabled-event menus — the engine's replay identity.
//   n-grams    — a sliding window (kNgramWindow chosen events) hashed at
//                every step. Where the full-schedule hash saturates slowly
//                (every new seed is a new schedule), n-grams measure *local
//                interleaving* coverage: which short event patterns the runs
//                have exercised. This is the paper-relevant granularity —
//                the bad executions of Figure 1 and the GHW counterexamples
//                hinge on short adversarial interleaving windows.
//   objects    — per shared object, a fold over its invocation subsequence
//                (pid, method, argument, result, call/return order): the
//                object-visible state-transition history, independent of
//                scheduler noise between invocations.
//
// ScheduleFingerprinter wraps any sim::Adversary and is choice-transparent:
// it forwards choose() verbatim, so a wrapped run IS the unwrapped run
// (bit-identical execution) plus fingerprints on the side.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/coverage.hpp"
#include "sim/world.hpp"

namespace blunt::obs {

/// Sliding-window width of the n-gram interleaving hashes. Four chosen
/// events spans the hand-off patterns the paper's adversaries exploit
/// (preamble read / concurrent write / delivery reorderings) while keeping
/// the per-step cost a few integer mixes.
inline constexpr int kNgramWindow = 4;

class ScheduleFingerprinter final : public sim::Adversary {
 public:
  explicit ScheduleFingerprinter(sim::Adversary& inner) : inner_(inner) {
    // Typical weakener/chaos runs produce a few hundred n-grams; pre-sizing
    // skips the early grow/rehash chain on every single trial.
    ngrams_.reserve(256);
  }

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

  /// Hash of the full chosen-event sequence (mixed with its length).
  [[nodiscard]] std::uint64_t schedule_hash() const;

  /// Distinct n-gram hashes this run produced (deduplicated per run).
  [[nodiscard]] const CoverageMap& ngrams() const { return ngrams_; }

  /// Chosen events seen so far (== scheduler steps of the run).
  [[nodiscard]] std::uint64_t steps() const { return count_; }

 private:
  sim::Adversary& inner_;
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis
  std::uint64_t count_ = 0;
  // Shift registers holding the previous three per-event hashes (newest in
  // prev1_) — together with the current event they form the 4-gram window.
  std::uint64_t prev1_ = 0;
  std::uint64_t prev2_ = 0;
  std::uint64_t prev3_ = 0;
  CoverageMap ngrams_;
};

/// One fingerprint per registered object: the fold described above, seeded
/// with the object's name. Works at every trace detail level (the invocation
/// table is always recorded). Deterministic: a pure function of the
/// execution's invocation history.
[[nodiscard]] std::vector<std::uint64_t> object_transition_fingerprints(
    const sim::World& w);

}  // namespace blunt::obs
