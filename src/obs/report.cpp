#include "obs/report.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "obs/trace_export.hpp"

namespace blunt::obs {

Json snapshot_to_json(const MetricsSnapshot& s) {
  JsonObject counters;
  for (const auto& [name, v] : s.counters) counters[name] = Json(v);
  JsonObject gauges;
  for (const auto& [name, v] : s.gauges) gauges[name] = Json(v);
  JsonObject histograms;
  for (const auto& [name, h] : s.histograms) {
    JsonObject o;
    JsonArray bounds;
    for (const double b : h.upper_bounds) bounds.emplace_back(b);
    JsonArray counts;
    for (const std::int64_t c : h.counts) counts.emplace_back(c);
    o["upper_bounds"] = Json(std::move(bounds));
    o["counts"] = Json(std::move(counts));
    o["count"] = Json(h.count);
    o["mean"] = Json(h.mean);
    o["stddev"] = Json(h.stddev);
    o["min"] = Json(h.min);
    o["max"] = Json(h.max);
    // Raw moments: with these a serialized histogram can be re-merged.
    o["sum"] = Json(h.sum);
    o["welford_mean"] = Json(h.welford_mean);
    o["m2"] = Json(h.m2);
    o["p50"] = Json(h.percentiles.p50);
    o["p90"] = Json(h.percentiles.p90);
    o["p99"] = Json(h.percentiles.p99);
    histograms[name] = Json(std::move(o));
  }
  JsonObject out;
  out["counters"] = Json(std::move(counters));
  out["gauges"] = Json(std::move(gauges));
  out["histograms"] = Json(std::move(histograms));
  return Json(std::move(out));
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

void BenchReport::set_metric(const std::string& key, double v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_int(const std::string& key, std::int64_t v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_string(const std::string& key, std::string v) {
  metrics_[key] = Json(std::move(v));
}

void BenchReport::set_metric_bool(const std::string& key, bool v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_json(const std::string& key, Json v) {
  metrics_[key] = std::move(v);
}

void BenchReport::add_timing_ms(const std::string& label, double ms) {
  timings_ms_[label] = Json(ms);
}

void BenchReport::merge_registry(const MetricsSnapshot& s) {
  registry_.merge(s);
}

void BenchReport::set_environment(const std::string& key, std::string value) {
  environment_[key] = Json(std::move(value));
}

void BenchReport::set_environment_int(const std::string& key,
                                      std::int64_t value) {
  environment_[key] = Json(value);
}

void BenchReport::set_profile(const std::string& key, Json v) {
  profile_[key] = std::move(v);
}

Json BenchReport::to_json() const {
  JsonObject o;
  o["schema"] = Json("blunt-bench-report");
  o["schema_version"] = Json(1);
  o["bench"] = Json(name_);
  o["metrics"] = Json(metrics_);
  o["registry"] = snapshot_to_json(registry_);
  o["timings_ms"] = Json(timings_ms_);
  o["environment"] = Json(environment_);
  // Optional: only profiled runs carry the section, so other reports,
  // baselines, and their comparisons are untouched.
  if (!profile_.empty()) o["profile"] = Json(profile_);
  return Json(std::move(o));
}

std::string BenchReport::write() {
  if (timings_ms_.find("total") == timings_ms_.end()) {
    const double total_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    add_timing_ms("total", total_ms);
  }
  std::string dir = ".";
  if (const char* env = std::getenv("BLUNT_BENCH_DIR")) {
    if (*env != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  write_text_file(path, to_json().dump(2) + "\n");
  return path;
}

namespace {

/// Depth-first scan for NaN/Inf; returns the path of the first offender,
/// empty string when the whole tree is finite.
std::string find_nonfinite(const Json& j, const std::string& path) {
  if (j.is_double() && !std::isfinite(j.as_double())) return path;
  if (j.is_array()) {
    const JsonArray& a = j.as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::string hit = find_nonfinite(a[i], path + "[" + std::to_string(i) + "]");
      if (!hit.empty()) return hit;
    }
  } else if (j.is_object()) {
    for (const auto& [k, v] : j.as_object()) {
      std::string hit = find_nonfinite(v, path.empty() ? k : path + "." + k);
      if (!hit.empty()) return hit;
    }
  }
  return "";
}

}  // namespace

std::string validate_report_json(const Json& j) {
  if (!j.is_object()) return "report is not a JSON object";
  if (const std::string hit = find_nonfinite(j, ""); !hit.empty()) {
    return "non-finite number (NaN/Inf) at \"" + hit + "\"";
  }
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "blunt-bench-report") {
    return "missing schema marker \"blunt-bench-report\"";
  }
  const Json* version = j.find("schema_version");
  if (version == nullptr || !version->is_int()) {
    return "missing integer schema_version";
  }
  const Json* bench = j.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    return "missing bench name";
  }
  for (const char* section : {"metrics", "registry", "timings_ms",
                              "environment"}) {
    const Json* s = j.find(section);
    if (s == nullptr || !s->is_object()) {
      return std::string("missing object section \"") + section + "\"";
    }
  }
  const Json& registry = j.at("registry");
  for (const char* sub : {"counters", "gauges", "histograms"}) {
    const Json* s = registry.find(sub);
    if (s == nullptr || !s->is_object()) {
      return std::string("registry missing \"") + sub + "\"";
    }
  }
  const Json* total = j.at("timings_ms").find("total");
  if (total == nullptr || !total->is_number()) {
    return "timings_ms missing numeric \"total\"";
  }
  // "profile" is optional, but when present it must be an object (the
  // renderers index into it without re-validating).
  if (const Json* prof = j.find("profile");
      prof != nullptr && !prof->is_object()) {
    return "section \"profile\" present but not an object";
  }
  return "";
}

}  // namespace blunt::obs
