// Unit tests for the observability metrics registry and the bench-report
// schema (src/obs).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace blunt::obs {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (bounds are inclusive upper edges)
  h.observe(1.5);   // bucket 1
  h.observe(100.0); // overflow
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.counts()[0], 2);
  EXPECT_EQ(h.counts()[1], 1);
  EXPECT_EQ(h.counts()[2], 0);
  EXPECT_EQ(h.counts()[3], 1);
  EXPECT_EQ(h.stats().count(), 4);
  EXPECT_DOUBLE_EQ(h.stats().max(), 100.0);
}

TEST(Histogram, DefaultStepLatencyBucketsArePowersOfTwo) {
  const std::vector<double> b = step_latency_buckets();
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_DOUBLE_EQ(b.back(), 16384.0);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(b[i], 2.0 * b[i - 1]);
  }
}

TEST(MetricsRegistry, PointersAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  a->inc(3);
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);  // same name -> same counter
  EXPECT_EQ(b->value(), 3);
  Histogram* h1 = reg.histogram("lat", {1.0, 2.0});
  Histogram* h2 = reg.histogram("lat", {8.0});  // bounds ignored on re-reg
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->upper_bounds().size(), 2u);
}

TEST(MetricsRegistry, SnapshotDecouplesFromRegistry) {
  MetricsRegistry reg;
  reg.counter("c")->inc(7);
  reg.gauge("g")->set(2.5);
  reg.histogram("h", {10.0})->observe(4.0);
  const MetricsSnapshot s = reg.snapshot();
  reg.counter("c")->inc(100);  // must not affect the snapshot
  EXPECT_EQ(s.counters.at("c"), 7);
  EXPECT_DOUBLE_EQ(s.gauges.at("g"), 2.5);
  EXPECT_EQ(s.histograms.at("h").count, 1);
  EXPECT_DOUBLE_EQ(s.histograms.at("h").mean, 4.0);
  EXPECT_EQ(s.counter_or("c", -1), 7);
  EXPECT_EQ(s.counter_or("missing", -1), -1);
}

TEST(MetricsSnapshot, MergeAddsCountersAndChanMergesHistograms) {
  MetricsRegistry a;
  a.counter("c")->inc(3);
  a.gauge("g")->set(1.0);
  a.histogram("h", {1.0, 2.0, 4.0})->observe(0.5);
  a.histogram("h")->observe(3.0);

  MetricsRegistry b;
  b.counter("c")->inc(4);
  b.counter("only_b")->inc(1);
  b.gauge("g")->set(9.0);
  b.histogram("h", {1.0, 2.0, 4.0})->observe(1.5);
  b.histogram("h")->observe(100.0);  // overflow bucket

  // Sequential reference: one histogram fed all four samples in order.
  MetricsRegistry seq;
  seq.histogram("h", {1.0, 2.0, 4.0})->observe(0.5);
  seq.histogram("h")->observe(3.0);
  seq.histogram("h")->observe(1.5);
  seq.histogram("h")->observe(100.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7);
  EXPECT_EQ(merged.counters.at("only_b"), 1);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 9.0);  // other wins

  const MetricsSnapshot seq_snap = seq.snapshot();
  const MetricsSnapshot::HistogramData& h = merged.histograms.at("h");
  const MetricsSnapshot::HistogramData& ref = seq_snap.histograms.at("h");
  EXPECT_EQ(h.counts, ref.counts);
  EXPECT_EQ(h.count, ref.count);
  EXPECT_DOUBLE_EQ(h.sum, ref.sum);
  EXPECT_DOUBLE_EQ(h.min, ref.min);
  EXPECT_DOUBLE_EQ(h.max, ref.max);
  EXPECT_NEAR(h.m2, ref.m2, 1e-9 * (1.0 + ref.m2));
  EXPECT_DOUBLE_EQ(h.percentiles.p50, ref.percentiles.p50);
}

TEST(MetricsSnapshot, MergeReplacesHistogramWithDifferentBounds) {
  MetricsRegistry a;
  a.histogram("h", {1.0, 2.0})->observe(0.5);
  MetricsRegistry b;
  b.histogram("h", {10.0, 20.0})->observe(15.0);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.histograms.at("h").upper_bounds,
            (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(merged.histograms.at("h").count, 1);
}

TEST(MetricsSnapshot, JsonRoundTripIsBitExact) {
  MetricsRegistry reg;
  reg.counter("net.messages_sent")->inc(42);
  reg.gauge("g")->set(0.1 + 0.2);  // not exactly representable as 0.3
  reg.histogram("h")->observe(3.0);
  reg.histogram("h")->observe(17.5);
  const MetricsSnapshot s = reg.snapshot();

  // Every double survives the text round trip bit-exactly, the raw
  // moments included.
  const Json j = Json::parse(snapshot_to_json(s).dump());
  EXPECT_EQ(j.dump(), snapshot_to_json(s).dump());
  EXPECT_EQ(j.at("counters").at("net.messages_sent").as_int(), 42);
  EXPECT_EQ(j.at("gauges").at("g").as_double(), s.gauges.at("g"));
  const Json& hj = j.at("histograms").at("h");
  const auto& hs = s.histograms.at("h");
  const JsonArray& counts = hj.at("counts").as_array();
  ASSERT_EQ(counts.size(), hs.counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].as_int(), hs.counts[i]);
  }
  const JsonArray& bounds = hj.at("upper_bounds").as_array();
  ASSERT_EQ(bounds.size(), hs.upper_bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i].as_double(), hs.upper_bounds[i]);
  }
  EXPECT_EQ(hj.at("count").as_int(), hs.count);
  EXPECT_EQ(hj.at("sum").as_double(), hs.sum);
  EXPECT_EQ(hj.at("welford_mean").as_double(), hs.welford_mean);
  EXPECT_EQ(hj.at("m2").as_double(), hs.m2);
  EXPECT_EQ(hj.at("mean").as_double(), hs.mean);
  EXPECT_EQ(hj.at("stddev").as_double(), hs.stddev);
}

TEST(BenchReport, ToJsonHasAllSectionsAndValidates) {
  BenchReport r("unit_test");
  r.set_metric("bad_probability", 0.625);
  r.set_metric_int("trials", 100);
  r.set_metric_string("note", "hello");
  r.set_metric_bool("ok", true);
  r.add_timing_ms("phase", 1.5);
  r.add_timing_ms("total", 2.0);
  r.set_environment("host", "test");
  r.set_environment_int("seeds", 5);

  MetricsRegistry reg;
  reg.counter(kMessagesSent)->inc(10);
  reg.histogram(kInvocationLatency)->observe(3.0);
  r.merge_registry(reg.snapshot());

  const Json j = r.to_json();
  EXPECT_EQ(validate_report_json(j), "");
  EXPECT_EQ(j.at("schema").as_string(), "blunt-bench-report");
  EXPECT_EQ(j.at("bench").as_string(), "unit_test");
  EXPECT_DOUBLE_EQ(j.at("metrics").at("bad_probability").as_double(), 0.625);
  EXPECT_EQ(j.at("registry").at("counters").at(kMessagesSent).as_int(), 10);
  EXPECT_EQ(j.at("environment").at("seeds").as_int(), 5);

  // The serialized form must parse back to the same document.
  const Json reparsed = Json::parse(j.dump(2));
  EXPECT_EQ(reparsed.dump(), j.dump());
  EXPECT_EQ(validate_report_json(reparsed), "");
}

TEST(BenchReport, MergeRegistryAddsCountersOverwritesGauges) {
  BenchReport r("merge_test");
  MetricsRegistry a;
  a.counter("c")->inc(3);
  a.gauge("g")->set(1.0);
  MetricsRegistry b;
  b.counter("c")->inc(4);
  b.gauge("g")->set(9.0);
  r.merge_registry(a.snapshot());
  r.merge_registry(b.snapshot());
  const Json j = r.to_json();
  EXPECT_EQ(j.at("registry").at("counters").at("c").as_int(), 7);
  EXPECT_DOUBLE_EQ(j.at("registry").at("gauges").at("g").as_double(), 9.0);
}

TEST(ValidateReport, RejectsMissingSections) {
  JsonObject o;
  o["schema"] = Json(std::string("blunt-bench-report"));
  EXPECT_NE(validate_report_json(Json(o)), "");
  EXPECT_NE(validate_report_json(Json(std::string("nope"))), "");
}

// NaN/Inf have no JSON representation; a non-finite metric is always an
// upstream bug, so serialization must fail loudly (never emit invalid JSON
// or a silent null) and validation must reject the in-memory document.
TEST(JsonNonFinite, DumpThrowsInsteadOfEmittingInvalidJson) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Json(nan).dump(), std::runtime_error);
  EXPECT_THROW((void)Json(inf).dump(), std::runtime_error);
  EXPECT_THROW((void)Json(-inf).dump(2), std::runtime_error);
  JsonArray nested;
  nested.emplace_back(JsonObject{{"x", Json(nan)}});
  EXPECT_THROW((void)Json(nested).dump(), std::runtime_error);
  // Finite doubles still round-trip.
  EXPECT_EQ(Json(0.625).dump(), "0.625");
}

// A double must parse back as a double: an integral value written as an
// integer literal would come back as an integer, which compare_reports
// reads as an exact count.
TEST(JsonDouble, IntegralAndFractionalDoublesParseBackAsDoubles) {
  for (const double d : {0.0, 1.0, -3.0, 1e21, 0.1}) {
    const std::string text = Json(d).dump();
    const Json back = Json::parse(text);
    EXPECT_TRUE(back.is_double()) << d << " written as " << text;
    EXPECT_EQ(back.as_double(), d) << d << " written as " << text;
  }
  EXPECT_EQ(Json(0.0).dump(), "0.0");
  EXPECT_EQ(Json(-3.0).dump(), "-3.0");
  EXPECT_EQ(Json(1e21).dump(), "1e+21");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(std::int64_t{0}).dump(), "0");  // integers stay integers
}

TEST(ValidateReport, RejectsNonFiniteAnywhereInTheDocument) {
  BenchReport r("nonfinite_test");
  r.add_timing_ms("total", 1.0);
  ASSERT_EQ(validate_report_json(r.to_json()), "");

  r.set_metric("bad_probability", std::nan(""));
  const std::string err = validate_report_json(r.to_json());
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("non-finite"), std::string::npos);
  EXPECT_NE(err.find("bad_probability"), std::string::npos);
  EXPECT_THROW((void)r.to_json().dump(), std::runtime_error);

  // Deeply nested offenders are found too (inside metric payload arrays).
  BenchReport r2("nonfinite_nested");
  r2.add_timing_ms("total", 1.0);
  JsonArray rows;
  rows.emplace_back(JsonObject{
      {"v", Json(std::numeric_limits<double>::infinity())}});
  r2.set_metric_json("sweep", Json(std::move(rows)));
  EXPECT_NE(validate_report_json(r2.to_json()).find("non-finite"),
            std::string::npos);
}

}  // namespace
}  // namespace blunt::obs
