// Small statistics helpers for Monte-Carlo experiments: sample means,
// Wilson confidence intervals for Bernoulli estimates, and a running
// accumulator. Benches use these to report termination-probability estimates
// with confidence intervals next to the paper's exact values; the obs
// metrics histograms build on RunningStats and the bucket-percentile helper.
#pragma once

#include <cstdint>
#include <vector>

namespace blunt {

/// Wilson score interval for a Bernoulli proportion.
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Wilson score interval at ~95% confidence (z = 1.96) for `successes` out of
/// `trials`. Returns [0,1] when trials == 0.
Interval wilson_interval(std::int64_t successes, std::int64_t trials,
                         double z = 1.96);

/// Streaming accumulator for Bernoulli outcomes.
class BernoulliEstimator {
 public:
  BernoulliEstimator() = default;
  BernoulliEstimator(std::int64_t successes, std::int64_t trials)
      : successes_(successes), trials_(trials) {}

  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  /// Associative, commutative shard merge: tallies are integer sums, so a
  /// merged estimator agrees EXACTLY with sequential accumulation in any
  /// grouping or order.
  void merge(const BernoulliEstimator& other) {
    successes_ += other.successes_;
    trials_ += other.trials_;
  }

  [[nodiscard]] std::int64_t trials() const { return trials_; }
  [[nodiscard]] std::int64_t successes() const { return successes_; }
  [[nodiscard]] double mean() const {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(successes_) /
                              static_cast<double>(trials_);
  }
  [[nodiscard]] Interval interval(double z = 1.96) const {
    return wilson_interval(successes_, trials_, z);
  }

 private:
  std::int64_t successes_ = 0;
  std::int64_t trials_ = 0;
};

/// Running mean/min/max/variance for real-valued samples (step counts,
/// message counts, latencies). Variance uses Welford's online algorithm, so
/// long accumulations stay numerically stable.
class RunningStats {
 public:
  void add(double x);

  /// Shard merge via the parallel Welford / Chan et al. update:
  ///
  ///   count' = n_a + n_b        sum' = sum_a + sum_b
  ///   m2'    = m2_a + m2_b + delta^2 * n_a * n_b / (n_a + n_b)
  ///
  /// count/sum/min/max merge exactly (sum is a plain double sum, so it is
  /// bit-exact whenever the samples are exactly representable, e.g. integer
  /// step counts); mean() stays sum/count and therefore inherits that
  /// exactness. The second moment matches sequential accumulation up to
  /// floating-point rounding. Merging in a FIXED fold order (the engine
  /// folds shards by ascending shard index) makes the result bit-identical
  /// for every thread count.
  void merge(const RunningStats& other);

  /// Rebuilds an accumulator from stored moments (MetricsSnapshot
  /// histograms merge through this). The moments must come from a previous
  /// instance; the roundtrip is bit-exact.
  [[nodiscard]] static RunningStats from_moments(std::int64_t count, double sum,
                                                 double min, double max,
                                                 double mean, double m2);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Population variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  [[nodiscard]] double stddev() const;
  /// Welford running mean / sum of squared deviations (serialization).
  [[nodiscard]] double welford_mean() const { return mean_; }
  [[nodiscard]] double welford_m2() const { return m2_; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;  // Welford running mean
  double m2_ = 0.0;    // Welford sum of squared deviations
};

/// The quantiles benches report by convention.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Quantile estimate from a fixed-bucket histogram: `upper_bounds[i]` is the
/// inclusive upper edge of bucket i (strictly increasing; the final bucket
/// catches everything above the last bound), `counts[i]` its occupancy.
/// Interpolates linearly within the bucket containing the q-quantile
/// (0 <= q <= 1); returns 0 for an empty histogram. The overflow bucket has
/// no upper edge, so values landing there clamp to the last finite bound.
[[nodiscard]] double percentile_from_buckets(
    const std::vector<double>& upper_bounds,
    const std::vector<std::int64_t>& counts, double q);

/// p50/p90/p99 in one pass over the bucket array.
[[nodiscard]] Percentiles percentiles_from_buckets(
    const std::vector<double>& upper_bounds,
    const std::vector<std::int64_t>& counts);

}  // namespace blunt
