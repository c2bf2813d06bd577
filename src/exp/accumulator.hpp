// Shard-local mergeable accumulator for the experiment engine.
//
// Each worker runs its shard's trials against a private Accumulator; after
// the barrier the engine folds all shard accumulators in ascending shard
// order. Every component is associative under merge and independent of the
// order trials ran *within* the fold structure, so the folded result is
// bit-identical for any --threads value (the shard structure, not the thread
// count, determines the merge tree):
//
//   tallies    — named BernoulliEstimators; integer sums, exactly
//                associative and commutative;
//   stats      — named RunningStats; count/sum/min/max exact, second moment
//                via the parallel Welford / Chan formula;
//   counters   — named int64 sums, exact;
//   registry   — an obs::MetricsSnapshot (counters add, histograms
//                Chan-merge) for trials that run instrumented worlds.
//   coverage   — named obs::CoverageMaps (execution-fingerprint sets);
//                merge is set union, which is order-insensitive, and the
//                canonical serialization (sorted fixed-width hex) makes the
//                folded set byte-identical for any thread count.
//   profiles   — named obs::ProfileSnapshots (per-subsystem phase stats and
//                exact work counters); merge is element-wise addition. The
//                calls and counters are exact; the nanosecond timings are
//                advisory wall-clock (like the engine's timings_ms) and are
//                excluded from identity comparisons via canonical_dump().
//
// The whole accumulator serializes to JSON with shortest-roundtrip doubles;
// canonical_dump() of that JSON is what the determinism tests compare
// across thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "obs/coverage.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace blunt::exp {

class Accumulator {
 public:
  /// Named components, created on first use.
  BernoulliEstimator& tally(const std::string& name) { return tallies_[name]; }
  RunningStats& stat(const std::string& name) { return stats_[name]; }
  std::int64_t& counter(const std::string& name) { return counters_[name]; }
  obs::MetricsSnapshot& registry() { return registry_; }
  obs::CoverageMap& coverage(const std::string& name) {
    return coverage_[name];
  }
  obs::ProfileSnapshot& profile(const std::string& name) {
    return profiles_[name];
  }

  // Read side (finalize hooks run on the merged accumulator). Missing names
  // yield empty/zero components so finalize code never branches on absence.
  [[nodiscard]] const BernoulliEstimator& tally(const std::string& name) const;
  [[nodiscard]] const RunningStats& stat(const std::string& name) const;
  [[nodiscard]] std::int64_t counter_or(const std::string& name,
                                        std::int64_t fallback = 0) const;
  [[nodiscard]] const obs::MetricsSnapshot& registry() const {
    return registry_;
  }
  [[nodiscard]] const std::map<std::string, BernoulliEstimator>& tallies()
      const {
    return tallies_;
  }
  [[nodiscard]] const std::map<std::string, RunningStats>& stats() const {
    return stats_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const obs::CoverageMap& coverage(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, obs::CoverageMap>& coverage_maps()
      const {
    return coverage_;
  }
  [[nodiscard]] const obs::ProfileSnapshot& profile(
      const std::string& name) const;
  [[nodiscard]] const std::map<std::string, obs::ProfileSnapshot>& profiles()
      const {
    return profiles_;
  }

  /// Associative shard merge; see the class comment for exactness.
  void merge(const Accumulator& other);

  /// Every component as JSON, doubles at shortest-roundtrip precision.
  [[nodiscard]] obs::Json to_json() const;

  /// to_json().dump() with the profiles' advisory nanosecond timings zeroed.
  /// The cross-thread-count identity tests compare this — the exact
  /// components must match to the bit while wall-clock may not.
  [[nodiscard]] std::string canonical_dump() const;

 private:
  std::map<std::string, BernoulliEstimator> tallies_;
  std::map<std::string, RunningStats> stats_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, obs::CoverageMap> coverage_;
  std::map<std::string, obs::ProfileSnapshot> profiles_;
  obs::MetricsSnapshot registry_;
};

}  // namespace blunt::exp
