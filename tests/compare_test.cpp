// The statistical comparator: Wilson-overlap verdicts on hand-built report
// pairs, counter thresholds, and the Theorem 4.2 bound watchdog.
#include "obs/compare.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace blunt::obs {
namespace {

/// Report with a Wilson-annotated Bernoulli headline, the way
/// bench::set_bernoulli_metric writes it.
[[nodiscard]] Json bernoulli_report(std::int64_t successes,
                                    std::int64_t trials) {
  BenchReport r("synthetic");
  const Interval iv = wilson_interval(successes, trials);
  r.set_metric("bad_probability",
               static_cast<double>(successes) / static_cast<double>(trials));
  r.set_metric("bad_probability_lo", iv.lo);
  r.set_metric("bad_probability_hi", iv.hi);
  r.set_metric_int("bad_probability_trials", trials);
  r.set_metric_int("trials", trials);
  r.add_timing_ms("total", 100.0);
  return r.to_json();
}

[[nodiscard]] const MetricComparison* find_metric(
    const CompareResult& r, const std::string& metric,
    const std::string& kind) {
  for (const auto& c : r.comparisons) {
    if (c.metric == metric && c.kind == kind) return &c;
  }
  return nullptr;
}

TEST(Compare, DisjointWilsonIntervalsRegress) {
  const Json base = bernoulli_report(10, 1000);  // ~[0.005, 0.018]
  const Json cur = bernoulli_report(50, 1000);   // ~[0.038, 0.065]
  const CompareResult r = compare_reports(base, cur);
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bernoulli");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);
  EXPECT_NE(c->evidence.find("disjoint"), std::string::npos);
  EXPECT_TRUE(r.has_regression());
  EXPECT_FALSE(r.has_bound_violation());
}

TEST(Compare, DisjointWilsonIntervalsImproveInTheOtherDirection) {
  const CompareResult r =
      compare_reports(bernoulli_report(50, 1000), bernoulli_report(10, 1000));
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bernoulli");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kImproved);
  EXPECT_FALSE(r.has_regression());
}

TEST(Compare, OverlappingIntervalsStayNeutralDespiteDifferentMeans) {
  // 5% vs 8% at n=100: the intervals overlap — sampling noise, not a verdict.
  const CompareResult r =
      compare_reports(bernoulli_report(5, 100), bernoulli_report(8, 100));
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bernoulli");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kNeutral);
  EXPECT_FALSE(r.has_regression());
}

TEST(Compare, IdenticalReportsAreClean) {
  const Json j = bernoulli_report(10, 1000);
  const CompareResult r = compare_reports(j, j);
  EXPECT_FALSE(r.has_regression());
  EXPECT_FALSE(r.has_bound_violation());
  for (const auto& c : r.comparisons) {
    EXPECT_NE(c.verdict, Verdict::kRegressed) << c.metric << ": " << c.evidence;
  }
}

/// Report with an exactly solved headline (degenerate interval, _trials =
/// 0) and its rational string, the way exp::set_exact_probability and the
/// game-solving experiments write them.
[[nodiscard]] Json exact_report(double v, const std::string& exact = "") {
  BenchReport r("synthetic");
  r.set_metric("bad_probability", v);
  r.set_metric("bad_probability_lo", v);
  r.set_metric("bad_probability_hi", v);
  r.set_metric_int("bad_probability_trials", 0);
  if (!exact.empty()) r.set_metric_string("bad_probability_exact", exact);
  r.add_timing_ms("total", 1.0);
  return r.to_json();
}

/// Exact analytic values (degenerate intervals, _trials = 0): ANY drift is
/// significant.
TEST(Compare, ExactProbabilityDriftRegressesWithoutSamples) {
  const CompareResult r =
      compare_reports(exact_report(0.625), exact_report(0.6251));
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bernoulli");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);
}

/// ... and in the other direction too: an exact value that drops is not an
/// improvement. A solver that returned 1/2 for ABD² must fail the gate.
TEST(Compare, ExactProbabilityDropRegressesToo) {
  const CompareResult r =
      compare_reports(exact_report(0.625), exact_report(0.5));
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bernoulli");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);
  EXPECT_TRUE(r.has_regression());
}

/// A `*_exact` rational string is compared, not skipped as a payload.
TEST(Compare, ExactRationalStringChangeRegresses) {
  const CompareResult moved =
      compare_reports(exact_report(0.625, "5/8"), exact_report(0.625, "1/2"));
  const MetricComparison* c =
      find_metric(moved, "metrics.bad_probability_exact", "exact");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);
  EXPECT_NE(c->evidence.find("5/8 -> 1/2"), std::string::npos);
  EXPECT_TRUE(moved.has_regression());

  const CompareResult same =
      compare_reports(exact_report(0.625, "5/8"), exact_report(0.625, "5/8"));
  c = find_metric(same, "metrics.bad_probability_exact", "exact");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kNeutral);
  EXPECT_FALSE(same.has_regression());
}

TEST(Compare, CounterDeltasUseRelativeThresholdWithFloor) {
  const auto counted = [](std::int64_t msgs) {
    BenchReport r("synthetic");
    MetricsRegistry reg;
    reg.counter("net.messages_sent")->inc(msgs);
    r.merge_registry(reg.snapshot());
    r.add_timing_ms("total", 1.0);
    return r.to_json();
  };
  const CompareResult grew = compare_reports(counted(1000), counted(2000));
  const MetricComparison* c =
      find_metric(grew, "registry.counters.net.messages_sent", "counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);

  EXPECT_EQ(find_metric(compare_reports(counted(1000), counted(1100)),
                        "registry.counters.net.messages_sent", "counter")
                ->verdict,
            Verdict::kNeutral);
  EXPECT_EQ(find_metric(compare_reports(counted(2000), counted(1000)),
                        "registry.counters.net.messages_sent", "counter")
                ->verdict,
            Verdict::kImproved);
}

TEST(Compare, InvariantFlagFlipRegresses) {
  const auto flagged = [](bool ok) {
    BenchReport r("synthetic");
    r.set_metric_bool("all_terminated", ok);
    r.add_timing_ms("total", 1.0);
    return r.to_json();
  };
  const CompareResult r = compare_reports(flagged(true), flagged(false));
  const MetricComparison* c =
      find_metric(r, "metrics.all_terminated", "flag");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kRegressed);
}

/// A report declaring the weakener instance (k=2, r=1, n=3, Prob[O]=1,
/// Prob[O_a]=1/2 -> bound 7/8) whose measurement sits on the given side.
[[nodiscard]] Json thm42_report(std::int64_t successes, std::int64_t trials) {
  JsonObject o = bernoulli_report(successes, trials).as_object();
  JsonObject& m = o["metrics"].as_object();
  m["thm42_k"] = Json(2);
  m["thm42_r"] = Json(1);
  m["thm42_n"] = Json(3);
  m["thm42_prob_lin"] = Json(1.0);
  m["thm42_prob_atomic"] = Json(0.5);
  m["bound_value"] = Json(0.875);
  m["bound_margin"] =
      Json(0.875 - static_cast<double>(successes) / static_cast<double>(trials));
  return Json(o);
}

TEST(BoundWatchdog, WilsonIntervalAboveBoundIsHardFailure) {
  // 950/1000: Wilson lo ~ 0.935 > 7/8 — deliberately violated bound.
  const auto rows = check_thm42_bound(thm42_report(950, 1000));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].verdict, Verdict::kBoundViolated);
  EXPECT_EQ(rows[0].kind, "bound");
  EXPECT_NE(rows[0].evidence.find("ABOVE"), std::string::npos);
}

TEST(BoundWatchdog, IntervalStraddlingTheBoundIsNotFlagged) {
  // 88% at n=100: interval straddles 0.875 — no definitive violation.
  const auto rows = check_thm42_bound(thm42_report(88, 100));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].verdict, Verdict::kNeutral);
}

TEST(BoundWatchdog, SatisfiedBoundReportsMargin) {
  const auto rows = check_thm42_bound(thm42_report(600, 1000));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].verdict, Verdict::kNeutral);
  EXPECT_NE(rows[0].evidence.find("margin"), std::string::npos);
}

TEST(BoundWatchdog, StoredBoundValueMustMatchClosedForm) {
  JsonObject o = thm42_report(600, 1000).as_object();
  o["metrics"].as_object()["bound_value"] = Json(0.5);  // report lies
  const auto rows = check_thm42_bound(Json(o));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].verdict, Verdict::kBoundViolated);
  EXPECT_NE(rows[0].evidence.find("disagrees"), std::string::npos);
}

TEST(BoundWatchdog, SilentWithoutDeclaredInstance) {
  EXPECT_TRUE(check_thm42_bound(bernoulli_report(10, 100)).empty());
}

TEST(BoundWatchdog, RunsInsideCompareReports) {
  const CompareResult r =
      compare_reports(thm42_report(600, 1000), thm42_report(950, 1000));
  EXPECT_TRUE(r.has_bound_violation());
  const MetricComparison* c =
      find_metric(r, "metrics.bad_probability", "bound");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, Verdict::kBoundViolated);
}

}  // namespace
}  // namespace blunt::obs
