#include "obs/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "core/bounds.hpp"

namespace blunt::obs {

namespace {

constexpr double kEps = 1e-12;

/// A counter verdict needs |delta| > max(kCounterNoiseFloor,
/// kCounterRelThreshold * |baseline|).
constexpr double kCounterRelThreshold = 0.25;
constexpr double kCounterNoiseFloor = 64.0;

[[nodiscard]] std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

[[nodiscard]] std::string bench_name_of(const Json& report) {
  const Json* b = report.find("bench");
  return (b != nullptr && b->is_string()) ? b->as_string() : "<unknown>";
}

[[nodiscard]] bool has_suffix(const std::string& key, const std::string& s) {
  return key.size() > s.size() &&
         key.compare(key.size() - s.size(), s.size(), s) == 0;
}

/// True for the companion keys that ride along a Bernoulli metric and must
/// not be compared as standalone quantities.
[[nodiscard]] bool is_companion_key(const std::string& key) {
  return key == "trials" || has_suffix(key, "_lo") || has_suffix(key, "_hi") ||
         has_suffix(key, "_trials");
}

/// The metric's sample size from `_trials` (or the headline `trials`);
/// 0 marks an exact value. nullopt when the report does not say.
[[nodiscard]] std::optional<std::int64_t> trials_of(const JsonObject& metrics,
                                                    const std::string& key) {
  auto trials = metrics.find(key + "_trials");
  if (trials == metrics.end() && key == "bad_probability") {
    trials = metrics.find("trials");
  }
  if (trials == metrics.end() || !trials->second.is_number()) {
    return std::nullopt;
  }
  return trials->second.as_int();
}

/// The metric's Wilson interval, from its `_lo`/`_hi` companions when the
/// bench wrote them, else recomputed from `_trials` (or the headline
/// `trials`). nullopt when the report gives no sample-size evidence — the
/// comparator never guesses.
[[nodiscard]] std::optional<Interval> interval_of(const JsonObject& metrics,
                                                 const std::string& key,
                                                 double value) {
  const auto lo = metrics.find(key + "_lo");
  const auto hi = metrics.find(key + "_hi");
  if (lo != metrics.end() && hi != metrics.end() && lo->second.is_number() &&
      hi->second.is_number()) {
    return Interval{lo->second.as_double(), hi->second.as_double()};
  }
  const std::optional<std::int64_t> n = trials_of(metrics, key);
  if (!n.has_value()) return std::nullopt;
  if (*n > 0) {
    const auto successes =
        static_cast<std::int64_t>(std::llround(value * static_cast<double>(*n)));
    return wilson_interval(successes, *n);
  }
  return Interval{value, value};  // _trials == 0 marks an exact value
}

[[nodiscard]] bool lower_is_better(const std::string& key) {
  return key.find("bad") != std::string::npos ||
         key.find("violation") != std::string::npos ||
         key.find("loss") != std::string::npos;
}

[[nodiscard]] std::set<std::string> key_union(const JsonObject& a,
                                              const JsonObject& b) {
  std::set<std::string> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);
  return keys;
}

[[nodiscard]] const JsonObject* object_section(const Json& report,
                                               const char* outer,
                                               const char* inner = nullptr) {
  const Json* s = report.find(outer);
  if (s == nullptr || !s->is_object()) return nullptr;
  if (inner != nullptr) {
    s = s->find(inner);
    if (s == nullptr || !s->is_object()) return nullptr;
  }
  return &s->as_object();
}

void compare_metrics(const Json& base, const Json& cur, const std::string& bench,
                     std::vector<MetricComparison>& out) {
  static const JsonObject kEmpty;
  const JsonObject* bm = object_section(base, "metrics");
  const JsonObject* cm = object_section(cur, "metrics");
  if (bm == nullptr) bm = &kEmpty;
  if (cm == nullptr) cm = &kEmpty;
  for (const std::string& key : key_union(*bm, *cm)) {
    if (is_companion_key(key)) continue;
    const auto bit = bm->find(key);
    const auto cit = cm->find(key);
    MetricComparison c;
    c.bench = bench;
    c.metric = "metrics." + key;
    if (bit == bm->end() || cit == cm->end()) {
      c.kind = "scalar";
      c.evidence = bit == bm->end() ? "only in current report"
                                    : "only in baseline report";
      out.push_back(std::move(c));
      continue;
    }
    const Json& bv = bit->second;
    const Json& cv = cit->second;
    if (bv.is_bool() && cv.is_bool()) {
      // Every boolean metric in the suite is an invariant flag that reads
      // true on a healthy run (all_terminated, theorem41_holds, ...).
      c.kind = "flag";
      c.baseline = bv.as_bool() ? 1.0 : 0.0;
      c.current = cv.as_bool() ? 1.0 : 0.0;
      if (bv.as_bool() == cv.as_bool()) {
        c.evidence = std::string("unchanged (") +
                     (cv.as_bool() ? "true" : "false") + ")";
      } else if (bv.as_bool() && !cv.as_bool()) {
        c.verdict = Verdict::kRegressed;
        c.evidence = "invariant flag flipped true -> false";
      } else {
        c.verdict = Verdict::kImproved;
        c.evidence = "flag flipped false -> true";
      }
      out.push_back(std::move(c));
      continue;
    }
    if (bv.is_string() && cv.is_string() && has_suffix(key, "_exact")) {
      // An exactly solved rational ("5/8"): any change is a regression.
      c.kind = "exact";
      if (bv.as_string() == cv.as_string()) {
        c.evidence = "unchanged (" + cv.as_string() + ")";
      } else {
        c.verdict = Verdict::kRegressed;
        c.evidence = "exact value moved " + bv.as_string() + " -> " +
                     cv.as_string();
      }
      out.push_back(std::move(c));
      continue;
    }
    if (!bv.is_number() || !cv.is_number()) continue;  // strings / payloads
    c.baseline = bv.as_double();
    c.current = cv.as_double();
    const std::optional<Interval> bi = interval_of(*bm, key, c.baseline);
    const std::optional<Interval> ci = interval_of(*cm, key, c.current);
    if (bi.has_value() && ci.has_value()) {
      c.kind = "bernoulli";
      if (trials_of(*bm, key) == 0 && trials_of(*cm, key) == 0) {
        // Exact on both sides: a move in either direction is a regression.
        if (std::abs(c.current - c.baseline) <= kEps) {
          c.evidence = "exact value unchanged";
        } else {
          c.verdict = Verdict::kRegressed;
          c.evidence = "exact value moved " + fmt(c.baseline) + " -> " +
                       fmt(c.current);
        }
        out.push_back(std::move(c));
        continue;
      }
      const bool worse = ci->lo > bi->hi + kEps;   // higher bad probability
      const bool better = ci->hi < bi->lo - kEps;  // lower bad probability
      const std::string detail = "Wilson 95% [" + fmt(ci->lo) + ", " +
                                 fmt(ci->hi) + "] vs baseline [" +
                                 fmt(bi->lo) + ", " + fmt(bi->hi) + "]";
      if (worse) {
        c.verdict = Verdict::kRegressed;
        c.evidence = "intervals disjoint, current worse: " + detail;
      } else if (better) {
        c.verdict = Verdict::kImproved;
        c.evidence = "intervals disjoint, current better: " + detail;
      } else {
        c.evidence = "intervals overlap: " + detail;
      }
      out.push_back(std::move(c));
      continue;
    }
    if (bv.is_int() && cv.is_int()) {
      // A seeded count (steps, runs, states visited): exact, so a move in
      // either direction is a regression.
      c.kind = "exact";
      if (bv.as_int() == cv.as_int()) {
        c.evidence = "exact count unchanged";
      } else {
        c.verdict = Verdict::kRegressed;
        c.evidence = "exact count moved " + std::to_string(bv.as_int()) +
                     " -> " + std::to_string(cv.as_int());
      }
      out.push_back(std::move(c));
      continue;
    }
    c.kind = "scalar";
    if (std::abs(c.current - c.baseline) <= kEps) {
      c.evidence = "unchanged";
    } else if (lower_is_better(key)) {
      c.verdict =
          c.current > c.baseline ? Verdict::kRegressed : Verdict::kImproved;
      c.evidence = "exact value moved " + fmt(c.baseline) + " -> " +
                   fmt(c.current) + " (lower is better, no interval)";
    } else {
      c.evidence = "changed " + fmt(c.baseline) + " -> " + fmt(c.current) +
                   " (no direction convention; informational)";
    }
    out.push_back(std::move(c));
  }
}

void compare_counters(const Json& base, const Json& cur,
                      const std::string& bench,
                      std::vector<MetricComparison>& out) {
  const JsonObject* bc = object_section(base, "registry", "counters");
  const JsonObject* cc = object_section(cur, "registry", "counters");
  if (bc == nullptr || cc == nullptr) return;
  for (const std::string& key : key_union(*bc, *cc)) {
    const auto bit = bc->find(key);
    const auto cit = cc->find(key);
    if (bit == bc->end() || cit == cc->end() || !bit->second.is_number() ||
        !cit->second.is_number()) {
      continue;
    }
    MetricComparison c;
    c.bench = bench;
    c.metric = "registry.counters." + key;
    c.kind = "counter";
    c.baseline = bit->second.as_double();
    c.current = cit->second.as_double();
    const double delta = c.current - c.baseline;
    const double threshold = std::max(
        kCounterNoiseFloor, kCounterRelThreshold * std::abs(c.baseline));
    const std::string detail = fmt(c.baseline) + " -> " + fmt(c.current) +
                               " (delta " + fmt(delta) + ", threshold " +
                               fmt(threshold) + ")";
    if (std::abs(delta) <= threshold) {
      c.evidence = "delta within threshold: " + detail;
    } else if (delta > 0) {
      c.verdict = Verdict::kRegressed;
      c.evidence = "counter grew beyond threshold: " + detail;
    } else {
      c.verdict = Verdict::kImproved;
      c.evidence = "counter shrank beyond threshold: " + detail;
    }
    out.push_back(std::move(c));
  }
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kImproved: return "improved";
    case Verdict::kNeutral: return "neutral";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kBoundViolated: return "BOUND VIOLATED";
  }
  return "?";
}

bool CompareResult::has_regression() const {
  return std::any_of(comparisons.begin(), comparisons.end(),
                     [](const MetricComparison& c) {
                       return c.verdict == Verdict::kRegressed;
                     });
}

bool CompareResult::has_bound_violation() const {
  return std::any_of(comparisons.begin(), comparisons.end(),
                     [](const MetricComparison& c) {
                       return c.verdict == Verdict::kBoundViolated;
                     });
}

std::vector<MetricComparison> check_thm42_bound(const Json& report) {
  std::vector<MetricComparison> out;
  const JsonObject* m = object_section(report, "metrics");
  if (m == nullptr) return out;
  const auto geti = [m](const char* key) -> std::optional<std::int64_t> {
    const auto it = m->find(key);
    if (it == m->end() || !it->second.is_number()) return std::nullopt;
    return it->second.as_int();
  };
  const auto getd = [m](const char* key, double fallback) {
    const auto it = m->find(key);
    return (it != m->end() && it->second.is_number()) ? it->second.as_double()
                                                      : fallback;
  };
  const auto k = geti("thm42_k");
  const auto r = geti("thm42_r");
  const auto n = geti("thm42_n");
  const auto bad = m->find("bad_probability");
  if (!k || !r || !n || bad == m->end() || !bad->second.is_number()) {
    return out;  // no declared blunting instance: nothing to watch
  }
  const double prob_lin = getd("thm42_prob_lin", 1.0);
  const double prob_atomic = getd("thm42_prob_atomic", 0.5);
  const double bound = core::theorem42_bound_f(
      static_cast<int>(*k), static_cast<int>(*r), static_cast<int>(*n),
      prob_lin, prob_atomic);
  const double value = bad->second.as_double();
  const std::optional<Interval> iv = interval_of(*m, "bad_probability", value);
  const Interval interval = iv.value_or(Interval{value, value});

  MetricComparison c;
  c.bench = bench_name_of(report);
  c.metric = "metrics.bad_probability";
  c.kind = "bound";
  c.baseline = bound;
  c.current = value;
  const std::string instance = "Theorem 4.2 (k=" + std::to_string(*k) +
                               ", r=" + std::to_string(*r) +
                               ", n=" + std::to_string(*n) +
                               ") bound " + fmt(bound);
  const double stored = getd("bound_value", bound);
  if (std::abs(stored - bound) > 1e-9) {
    c.verdict = Verdict::kBoundViolated;
    c.evidence = "report's bound_value " + fmt(stored) +
                 " disagrees with the recomputed closed form " + fmt(bound);
  } else if (interval.lo > bound + kEps) {
    c.verdict = Verdict::kBoundViolated;
    c.evidence = "Wilson 95% interval [" + fmt(interval.lo) + ", " +
                 fmt(interval.hi) + "] lies ABOVE the " + instance +
                 " — the measurement contradicts the theorem";
  } else {
    c.evidence = instance + " holds: interval [" + fmt(interval.lo) + ", " +
                 fmt(interval.hi) + "], margin " + fmt(bound - interval.hi);
  }
  out.push_back(std::move(c));
  return out;
}

CompareResult compare_reports(const Json& baseline, const Json& current) {
  CompareResult result;
  const std::string bench = bench_name_of(current);
  compare_metrics(baseline, current, bench, result.comparisons);
  compare_counters(baseline, current, bench, result.comparisons);
  for (MetricComparison& c : check_thm42_bound(current)) {
    result.comparisons.push_back(std::move(c));
  }
  return result;
}

}  // namespace blunt::obs
