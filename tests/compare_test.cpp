// The exact report diff and the Theorem 4.2 bound watchdog: hand-built
// report pairs, and edits to the committed baselines (bench/baselines) that
// the baseline gate must name.
#include "obs/compare.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace blunt::obs {
namespace {

/// Report with a Wilson-annotated Bernoulli headline, the way
/// exp::set_bernoulli_metric writes it.
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

[[nodiscard]] std::vector<std::string> paths_of(
    const std::vector<Difference>& diffs) {
  std::vector<std::string> paths;
  for (const Difference& d : diffs) paths.push_back(d.path);
  return paths;
}

TEST(Compare, IdenticalReportsAreClean) {
  const Json j = bernoulli_report(10, 1000);
  EXPECT_TRUE(compare_reports(j, j).empty());
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

TEST(Compare, ExactProbabilityDriftRegressesWithoutSamples) {
  const std::vector<Difference> d =
      compare_reports(exact_report(0.625), exact_report(0.6251));
  EXPECT_EQ(paths_of(d), (std::vector<std::string>{
                             "metrics.bad_probability",
                             "metrics.bad_probability_hi",
                             "metrics.bad_probability_lo"}));
  ASSERT_FALSE(d.empty());
  EXPECT_EQ(d[0].baseline, "0.625");
  EXPECT_EQ(d[0].current, "0.6251");
}

/// A drop is a difference too: a solver that returned 1/2 for ABD² must
/// fail the gate.
TEST(Compare, ExactProbabilityDropRegressesToo) {
  const std::vector<Difference> d =
      compare_reports(exact_report(0.625), exact_report(0.5));
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(to_string(d[0]), "metrics.bad_probability: 0.625 -> 0.5");
}

TEST(Compare, ExactRationalStringChangeRegresses) {
  const std::vector<Difference> moved =
      compare_reports(exact_report(0.625, "5/8"), exact_report(0.625, "1/2"));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].path, "metrics.bad_probability_exact");
  EXPECT_EQ(moved[0].baseline, "\"5/8\"");
  EXPECT_EQ(moved[0].current, "\"1/2\"");

  EXPECT_TRUE(compare_reports(exact_report(0.625, "5/8"),
                              exact_report(0.625, "5/8"))
                  .empty());
}

/// Every metric is compared, whatever its name or type: an integer count
/// and a derived double alike.
TEST(Compare, IntegerMetricChangeRegresses) {
  const auto counted = [](std::int64_t steps, double ratio) {
    BenchReport r("synthetic");
    r.set_metric_int("n8_k1.steps", steps);
    r.set_metric("steps_per_run", ratio);
    r.add_timing_ms("total", 1.0);
    return r.to_json();
  };
  for (const std::int64_t moved : {1001, 999}) {
    const std::vector<Difference> d =
        compare_reports(counted(1000, 2.5), counted(moved, 2.5));
    ASSERT_EQ(d.size(), 1u) << moved;
    EXPECT_EQ(to_string(d[0]),
              "metrics.n8_k1.steps: 1000 -> " + std::to_string(moved));
  }
  EXPECT_EQ(paths_of(compare_reports(counted(1000, 2.5), counted(1000, 2.75))),
            (std::vector<std::string>{"metrics.steps_per_run"}));
}

TEST(Compare, InvariantFlagFlipRegresses) {
  const auto flagged = [](bool ok) {
    BenchReport r("synthetic");
    r.set_metric_bool("all_terminated", ok);
    r.add_timing_ms("total", 1.0);
    return r.to_json();
  };
  for (const bool from : {true, false}) {
    const std::vector<Difference> d =
        compare_reports(flagged(from), flagged(!from));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].path, "metrics.all_terminated");
  }
}

TEST(Compare, KeyOnlyInCurrentReportIsADifference) {
  BenchReport r("synthetic");
  r.set_metric_int("runs", 8);
  const Json base = r.to_json();
  r.set_metric_int("coverage.schedules_unique", 5);
  const std::vector<Difference> d = compare_reports(base, r.to_json());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(to_string(d[0]),
            "metrics.coverage.schedules_unique: (absent) -> 5");
  // ... and in the other direction, a key the report no longer writes.
  ASSERT_EQ(compare_reports(r.to_json(), base).size(), 1u);
  EXPECT_EQ(compare_reports(r.to_json(), base)[0].current, "");
}

TEST(Compare, IntegerAgainstIntegralDoubleIsADifference) {
  const auto with = [](const Json& v) {
    JsonObject metrics;
    metrics["bound_double"] = v;
    JsonObject report;
    report["metrics"] = Json(std::move(metrics));
    return Json(std::move(report));
  };
  const std::vector<Difference> d =
      compare_reports(with(Json(1)), with(Json(1.0)));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(to_string(d[0]), "metrics.bound_double: 1 -> 1.0");
}

TEST(Compare, ArrayOfDifferentLengthIsOneDifference) {
  const auto rows = [](int n) {
    BenchReport r("synthetic");
    JsonArray a;
    for (int i = 0; i < n; ++i) a.emplace_back(i);
    r.set_metric_json("rows", Json(std::move(a)));
    return r.to_json();
  };
  const std::vector<Difference> d = compare_reports(rows(3), rows(2));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(to_string(d[0]), "metrics.rows: array of 3 -> array of 2");
}

TEST(Compare, TimingsEnvironmentProfileAndCoverageAreNotCompared) {
  const auto report = [](int v) {
    BenchReport r("synthetic");
    r.set_metric_int("runs", 8);
    r.add_timing_ms("total", v);
    r.set_environment_int("engine_threads", v);
    r.set_profile("n4", Json(v));
    r.set_coverage("fingerprints", Json(v));
    return r.to_json();
  };
  EXPECT_TRUE(compare_reports(report(1), report(2)).empty());
}

[[nodiscard]] Json load_baseline(const std::string& name) {
  const std::string path =
      std::string(BLUNT_BASELINES_DIR) + "/BENCH_" + name + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

[[nodiscard]] JsonObject& section(Json& report, const char* name) {
  return report.as_object()[name].as_object();
}

/// Changes to the paper's tables and numbers, each applied to an in-memory
/// copy of a committed baseline: the diff must name exactly the edited
/// paths, with the edited value as the baseline side.
TEST(Compare, CommittedBaselineEditsAreNamed) {
  struct Edit {
    std::string bench;
    std::function<void(Json&)> apply;
    std::vector<std::string> paths;
  };
  const Interval two_of_eight = wilson_interval(2, 8);
  const std::vector<Edit> edits = {
      {"theorem42_bound",
       [](Json& r) {
         section(r, "metrics")["weakener_bounds"]
             .as_array()[1]
             .as_object()["bound"] = Json("3/4");
       },
       {"metrics.weakener_bounds[1].bound"}},
      {"abd2_exact_game",
       [](Json& r) {
         section(r, "metrics")["termination_probability"] = Json(0.5);
       },
       {"metrics.termination_probability"}},
      {"k_tradeoff",
       [](Json& r) {
         section(r, "metrics")["round_composition"]
             .as_array()[0]
             .as_object()["exact_atomic_bad"] = Json("5/8");
       },
       {"metrics.round_composition[0].exact_atomic_bad"}},
      {"consensus",
       [](Json& r) {
         section(r, "metrics")["implementations"]
             .as_array()[0]
             .as_object()["agreement"] = Json(59);
       },
       {"metrics.implementations[0].agreement"}},
      {"chaos_soak",
       [](Json& r) { section(r, "metrics")["shrink_program"] = Json(""); },
       {"metrics.shrink_program"}},
      {"n_sweep",
       [&two_of_eight](Json& r) {
         JsonObject& m = section(r, "metrics");
         m["n8_k1.bad_probability"] = Json(0.25);
         m["n8_k1.bad_probability_lo"] = Json(two_of_eight.lo);
         m["n8_k1.bad_probability_hi"] = Json(two_of_eight.hi);
       },
       {"metrics.n8_k1.bad_probability", "metrics.n8_k1.bad_probability_hi",
        "metrics.n8_k1.bad_probability_lo"}},
      {"theorem42_bound",
       [](Json& r) {
         Json& c = section(r, "registry")["counters"]
                       .as_object()["net.messages_delivered"];
         c = Json(c.as_int() * 6 / 5);
       },
       {"registry.counters.net.messages_delivered"}},
      {"abd_k_sweep",
       [](Json& r) {
         section(r, "registry")["histograms"] = Json(JsonObject{});
       },
       {"registry.histograms.mc.steps_per_trial",
        "registry.histograms.sim.invocation.latency_steps"}},
      {"chaos_soak",
       [](Json& r) {
         Json& t = section(r, "metrics")["trials"];
         t = Json(t.as_int() + 1);
       },
       {"metrics.trials"}},
      {"equivalence_soak",
       [](Json& r) {
         Json& t = section(r, "metrics")["trials"];
         t = Json(t.as_int() + 1);
       },
       {"metrics.trials"}},
  };
  for (const Edit& e : edits) {
    const Json committed = load_baseline(e.bench);
    ASSERT_TRUE(compare_reports(committed, committed).empty()) << e.bench;
    Json edited = committed;
    e.apply(edited);
    const std::vector<Difference> d = compare_reports(edited, committed);
    EXPECT_EQ(paths_of(d), e.paths) << e.bench;
    for (const Difference& one : d) {
      EXPECT_NE(one.baseline, one.current) << e.bench << " " << one.path;
    }
  }
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
  const std::vector<Difference> d = check_thm42_bound(thm42_report(950, 1000));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].path, "metrics.bad_probability_lo");
  EXPECT_EQ(d[0].baseline, "at most 0.875 (Theorem 4.2, k=2, r=1, n=3)");
  EXPECT_EQ(d[0].current.substr(0, 4), "0.93");
}

TEST(BoundWatchdog, IntervalStraddlingTheBoundIsNotFlagged) {
  // 88% at n=100: interval straddles 0.875 — no definitive violation.
  EXPECT_TRUE(check_thm42_bound(thm42_report(88, 100)).empty());
}

TEST(BoundWatchdog, SatisfiedBoundReportsMargin) {
  // Well inside the bound, and at zero margin: an interval whose lower end
  // sits exactly on 7/8 does not contradict the theorem.
  EXPECT_TRUE(check_thm42_bound(thm42_report(600, 1000)).empty());
  JsonObject o = thm42_report(600, 1000).as_object();
  o["metrics"].as_object()["bad_probability_lo"] = Json(0.875);
  EXPECT_TRUE(check_thm42_bound(Json(o)).empty());
  // A report that declares an instance must say where its interval starts.
  o["metrics"].as_object().erase("bad_probability_lo");
  const std::vector<Difference> d = check_thm42_bound(Json(o));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].path, "metrics.bad_probability_lo");
  EXPECT_EQ(d[0].current, "");
}

TEST(BoundWatchdog, StoredBoundValueMustMatchClosedForm) {
  JsonObject o = thm42_report(600, 1000).as_object();
  o["metrics"].as_object()["bound_value"] = Json(0.5);  // report lies
  const std::vector<Difference> d = check_thm42_bound(Json(o));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(to_string(d[0]),
            "metrics.bound_value: 0.875 (Theorem 4.2, k=2, r=1, n=3) -> 0.5");
}

TEST(BoundWatchdog, SilentWithoutDeclaredInstance) {
  EXPECT_TRUE(check_thm42_bound(bernoulli_report(10, 100)).empty());
}

TEST(BoundWatchdog, RunsInsideCompareReports) {
  // Identical reports still fail when the current one breaks the bound.
  const Json violated = thm42_report(950, 1000);
  const std::vector<Difference> d = compare_reports(violated, violated);
  EXPECT_EQ(paths_of(d),
            (std::vector<std::string>{"metrics.bad_probability_lo"}));
}

}  // namespace
}  // namespace blunt::obs
