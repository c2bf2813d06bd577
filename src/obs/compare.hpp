// Statistical comparison of bench reports — the baseline gate's brain.
//
// Given a baseline and a current report of the same bench, every comparable
// quantity is classified as improved / regressed / neutral with the
// statistical evidence attached:
//
//   * Bernoulli metrics (bad probabilities, violation rates) use Wilson 95%
//     interval overlap: a verdict other than neutral requires DISJOINT
//     intervals, so small-sample jitter can never fail the gate. A metric
//     `K` is Bernoulli when it carries `K_lo` / `K_hi` companions (written
//     by exp::set_bernoulli_metric / set_exact_probability). Lower is
//     better by convention — these are bad-outcome probabilities.
//   * exact values: `K_trials` = 0 on both sides marks an analytic or
//     exactly solved value with a degenerate interval, a `*_exact` string
//     holds such a value as a rational ("5/8"), and a metric that is a JSON
//     integer in both reports is a seeded count (steps, runs, states
//     visited). Any change to any of them, in either direction, is a
//     regression;
//   * other numeric metrics with no interval evidence compare as scalars:
//     drift of a lower-is-better key is a verdict, any other change is
//     informational; boolean metrics are invariant flags;
//   * registry counters use relative deltas over a noise floor; message /
//     step / retransmission counts growing past it is a regression.
//
// Wall-clock timings_ms are never compared: the committed baselines come
// from another host, where a timing says nothing about this build.
//
// The Theorem 4.2 bound watchdog rides along: a report that declares its
// blunting instance (`thm42_k`, `thm42_r`, `thm42_n`, `thm42_prob_lin`,
// `thm42_prob_atomic`) has its empirical `bad_probability` checked against
// the closed-form bound of Section 4.2. A Wilson interval lying entirely on
// the wrong side of the bound is a HARD FAILURE (kBoundViolated), not a mere
// regression — it means the measurement contradicts the theorem (or the
// implementation no longer satisfies its hypotheses).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace blunt::obs {

enum class Verdict {
  kImproved,
  kNeutral,
  kRegressed,
  kBoundViolated,  // Theorem 4.2 watchdog: empirical estimate beats the bound
};

[[nodiscard]] const char* to_string(Verdict v);

struct MetricComparison {
  std::string bench;
  std::string metric;  // dotted path, e.g. "metrics.bad_probability"
  std::string kind;    // "bernoulli" | "exact" | "counter" | "scalar" |
                       // "flag" | "bound"
  Verdict verdict = Verdict::kNeutral;
  double baseline = 0.0;
  double current = 0.0;
  std::string evidence;  // human-readable justification
};

struct CompareResult {
  std::vector<MetricComparison> comparisons;

  [[nodiscard]] bool has_regression() const;
  [[nodiscard]] bool has_bound_violation() const;
};

/// Classifies every metric and registry counter of `current` against
/// `baseline` (both full blunt-bench-report documents of the same bench) and
/// runs the bound watchdog on `current`.
[[nodiscard]] CompareResult compare_reports(const Json& baseline,
                                            const Json& current);

/// The Theorem 4.2 watchdog alone (no baseline needed): empty vector when
/// the report declares no blunting instance; one "bound" comparison row —
/// kBoundViolated or kNeutral — otherwise. Also cross-checks the report's
/// stored `bound_value` against the recomputed closed form.
[[nodiscard]] std::vector<MetricComparison> check_thm42_bound(
    const Json& report);

}  // namespace blunt::obs
