// blunt_report — the cross-run observability CLI and CI regression gate.
//
// Aggregates every BENCH_*.json in a directory plus the append-only
// experiment ledger (BENCH_HISTORY.jsonl) into:
//
//   * a Markdown summary (regressions, improvements, bound-watchdog rows);
//   * a self-contained HTML dashboard: per-metric sparklines across ledger
//     entries (i.e. across commits) and a Theorem 4.2 bound-margin chart;
//   * an exit code CI can gate on:
//       0  clean (everything neutral or improved)
//       1  at least one statistical regression (or unreadable report)
//       2  Theorem 4.2 bound violation — the empirical Wilson interval lies
//          on the wrong side of the closed-form bound (hard failure)
//
// Baseline resolution, per bench:
//   --against DIR        DIR/BENCH_<name>.json (e.g. the committed
//                        bench/baselines seeded set);
//   otherwise            the previous ledger entry for that bench (the
//                        latest entry when the current report is not yet in
//                        the ledger, the one before it when it is).
//
// Wall-clock timings only gate when both sides ran on the same host
// (committed baselines and cross-host ledger entries compare as advisory);
// pass --trust-timings to override.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"

namespace blunt {
namespace {

namespace fs = std::filesystem;
using obs::Json;

struct Options {
  std::string bench_dir;
  std::string ledger_path;
  std::string against_dir;  // empty: baseline from the ledger
  std::string out_md;
  std::string out_html;
  bool trust_timings = false;
  bool no_gate = false;
};

struct BenchState {
  std::string name;
  Json current;
  std::optional<Json> baseline;
  std::string baseline_origin;  // "--against", "ledger[i]", or "none"
  std::optional<obs::LedgerStamp> baseline_stamp;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --bench-dir DIR   directory of BENCH_*.json (default: "
      "$BLUNT_BENCH_DIR or .)\n"
      "  --ledger PATH     ledger (default: <bench-dir>/BENCH_HISTORY.jsonl)\n"
      "  --against DIR     baseline reports, e.g. bench/baselines\n"
      "  --out-md PATH     Markdown summary (default: "
      "<bench-dir>/blunt_report.md)\n"
      "  --out-html PATH   HTML dashboard (default: "
      "<bench-dir>/blunt_dashboard.html)\n"
      "  --trust-timings   gate on wall-clock even across hosts\n"
      "  --no-gate         report only; always exit 0\n",
      argv0);
}

[[nodiscard]] std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  if (const char* env = std::getenv("BLUNT_BENCH_DIR"); env && *env) {
    o.bench_dir = env;
  } else {
    o.bench_dir = ".";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "blunt_report: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--bench-dir") {
      const char* v = value();
      if (!v) return std::nullopt;
      o.bench_dir = v;
    } else if (arg == "--ledger") {
      const char* v = value();
      if (!v) return std::nullopt;
      o.ledger_path = v;
    } else if (arg == "--against") {
      const char* v = value();
      if (!v) return std::nullopt;
      o.against_dir = v;
    } else if (arg == "--out-md") {
      const char* v = value();
      if (!v) return std::nullopt;
      o.out_md = v;
    } else if (arg == "--out-html") {
      const char* v = value();
      if (!v) return std::nullopt;
      o.out_html = v;
    } else if (arg == "--trust-timings") {
      o.trust_timings = true;
    } else if (arg == "--no-gate") {
      o.no_gate = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "blunt_report: unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (o.ledger_path.empty()) {
    o.ledger_path = o.bench_dir + "/BENCH_HISTORY.jsonl";
  }
  if (o.out_md.empty()) o.out_md = o.bench_dir + "/blunt_report.md";
  if (o.out_html.empty()) o.out_html = o.bench_dir + "/blunt_dashboard.html";
  return o;
}

/// BENCH_<name>.json files in `dir`, keyed by bench name. Unreadable or
/// schema-invalid files land in `errors`.
[[nodiscard]] std::map<std::string, Json> scan_reports(
    const std::string& dir, std::vector<std::string>* errors) {
  std::map<std::string, Json> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    const std::string bench = fname.substr(6, fname.size() - 6 - 5);
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      Json j = Json::parse(buf.str());
      const std::string err = obs::validate_report_json(j);
      if (!err.empty()) {
        if (errors) errors->push_back(fname + ": " + err);
        continue;
      }
      out[bench] = std::move(j);
    } catch (const std::exception& e) {
      if (errors) errors->push_back(fname + ": " + e.what());
    }
  }
  return out;
}

[[nodiscard]] std::string iso_utc(std::int64_t unix_s) {
  std::time_t t = static_cast<std::time_t>(unix_s);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

[[nodiscard]] std::string short_sha(const std::string& sha) {
  return sha.size() > 10 ? sha.substr(0, 10) : sha;
}

[[nodiscard]] std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

[[nodiscard]] std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// One-line engine provenance for reports produced by the experiment engine
/// (blunt_exp or the thin bench mains): thread count, shard structure, and
/// resume accounting. Empty for pre-engine reports, so both renderers degrade
/// gracefully on old ledger entries.
[[nodiscard]] std::string engine_provenance(const Json& report) {
  const Json* threads =
      obs::resolve_metric_path(report, "environment.engine_threads");
  if (threads == nullptr) return "";
  std::string out = "engine: " + std::to_string(threads->as_int()) + " thread" +
                    (threads->as_int() == 1 ? "" : "s");
  if (const Json* v =
          obs::resolve_metric_path(report, "environment.engine_trials")) {
    out += ", " + std::to_string(v->as_int()) + " trials";
  }
  if (const Json* v =
          obs::resolve_metric_path(report, "environment.engine_shard_size")) {
    out += ", shard size " + std::to_string(v->as_int());
  }
  if (const Json* v =
          obs::resolve_metric_path(report, "environment.engine_seed")) {
    out += ", seed " + std::to_string(v->as_int());
  }
  const Json* total =
      obs::resolve_metric_path(report, "environment.engine_shards_total");
  const Json* resumed =
      obs::resolve_metric_path(report, "environment.engine_shards_resumed");
  if (total != nullptr) {
    out += ", " + std::to_string(total->as_int()) + " shards";
    if (resumed != nullptr && resumed->as_int() > 0) {
      out += " (" + std::to_string(resumed->as_int()) + " resumed)";
    }
  }
  return out;
}

/// Inline SVG sparkline over a ledger series; the last point is emphasized
/// and the whole polyline carries a tooltip of sha -> value pairs.
[[nodiscard]] std::string sparkline_svg(
    const std::vector<obs::SeriesPoint>& series) {
  constexpr double kW = 240.0, kH = 40.0, kPad = 4.0;
  if (series.size() < 2) return "";
  double lo = series.front().value, hi = series.front().value;
  for (const auto& p : series) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  const double span = hi - lo;
  std::string points;
  std::string title;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double x =
        kPad + (kW - 2 * kPad) * static_cast<double>(i) /
                   static_cast<double>(series.size() - 1);
    const double y =
        span <= 0.0
            ? kH / 2
            : kH - kPad - (kH - 2 * kPad) * (series[i].value - lo) / span;
    points += fmt(x) + "," + fmt(y) + " ";
    title += short_sha(series[i].stamp.git_sha) + ": " +
             fmt(series[i].value) + "&#10;";
  }
  const auto& last = series.back();
  const double lx = kPad + (kW - 2 * kPad);
  const double ly = span <= 0.0 ? kH / 2
                                : kH - kPad - (kH - 2 * kPad) *
                                                  (last.value - lo) / span;
  std::string svg = "<svg class=\"spark\" width=\"" + fmt(kW) +
                    "\" height=\"" + fmt(kH) + "\" viewBox=\"0 0 " + fmt(kW) +
                    " " + fmt(kH) + "\"><title>" + title + "</title>" +
                    "<polyline fill=\"none\" stroke=\"#4878a8\" "
                    "stroke-width=\"1.5\" points=\"" +
                    points + "\"/>" + "<circle cx=\"" + fmt(lx) + "\" cy=\"" +
                    fmt(ly) + "\" r=\"2.5\" fill=\"#1d4f7c\"/></svg>";
  return svg;
}

// -- Execution coverage ------------------------------------------------------

/// Everything the renderers need from a report's coverage instrumentation
/// (empty `present` for coverage-off runs — the section simply isn't drawn).
struct CoverageView {
  bool present = false;
  double schedules = 0, ngrams = 0, objects = 0, new_last = 0;
  std::int64_t window_shards = 0;
  std::vector<double> growth;  // cumulative unique schedules per shard prefix
  std::string verdict;         // "plateaued" or "still climbing"
};

[[nodiscard]] CoverageView coverage_view(const Json& report) {
  CoverageView cv;
  const Json* s = obs::resolve_metric_path(
      report, "metrics.coverage.schedules_unique");
  if (s == nullptr) return cv;
  cv.present = true;
  cv.schedules = s->as_double();
  if (const Json* v = obs::resolve_metric_path(
          report, "metrics.coverage.ngrams_unique")) {
    cv.ngrams = v->as_double();
  }
  if (const Json* v = obs::resolve_metric_path(
          report, "metrics.coverage.objects_unique")) {
    cv.objects = v->as_double();
  }
  if (const Json* v = obs::resolve_metric_path(
          report, "metrics.coverage.new_last_window")) {
    cv.new_last = v->as_double();
  }
  if (const Json* cov = report.find("coverage"); cov && cov->is_object()) {
    if (const Json* fp = cov->find("fingerprints"); fp && fp->is_object()) {
      if (const Json* w = fp->find("window_shards"); w && w->is_number()) {
        cv.window_shards = w->as_int();
      }
      if (const Json* g = fp->find("growth"); g && g->is_object()) {
        if (const Json* sc = g->find("schedules"); sc && sc->is_array()) {
          for (const Json& p : sc->as_array()) {
            if (p.is_number()) cv.growth.push_back(p.as_double());
          }
        }
      }
    }
  }
  // Saturation heuristic: the run has plateaued when the last ~10% of shards
  // contributed no more than 1% of the distinct schedules seen.
  cv.verdict = cv.new_last <= 0.01 * std::max(1.0, cv.schedules)
                   ? "plateaued"
                   : "still climbing";
  return cv;
}

// -- Greybox fuzzing ---------------------------------------------------------

/// Everything the renderers need from a fuzz_search report (absent `present`
/// for non-fuzzing benches — the section is only drawn when a report carries
/// the fuzz.* metric family).
struct FuzzView {
  bool present = false;
  double corpus_size = 0, corpus_violations = 0;
  double found = 0, shrunk = 0, repairs = 0;
  // Per-target discovery economics; speedup < 0 means "arm not run".
  double abd_cost = -1, abd_speedup = -1;
  double fig1_cost = -1, fig1_speedup = -1;
};

[[nodiscard]] FuzzView fuzz_view(const Json& report) {
  FuzzView fv;
  const auto num = [&report](const char* path, double fallback) {
    const Json* v = obs::resolve_metric_path(report, path);
    return v != nullptr && v->is_number() ? v->as_double() : fallback;
  };
  if (obs::resolve_metric_path(report, "metrics.fuzz.violations_found") ==
      nullptr) {
    return fv;
  }
  fv.present = true;
  fv.corpus_size = num("metrics.fuzz.corpus_size", 0);
  fv.corpus_violations = num("metrics.fuzz.corpus_violations", 0);
  fv.found = num("metrics.fuzz.violations_found", 0);
  fv.shrunk = num("metrics.fuzz.violations_shrunk", 0);
  fv.repairs = num("metrics.fuzz.replay_repair", 0);
  fv.abd_cost = num("metrics.fuzz.abd.execs_per_find", -1);
  fv.abd_speedup = num("metrics.fuzz.abd.speedup", -1);
  fv.fig1_cost = num("metrics.fuzz.fig1.execs_per_pair", -1);
  fv.fig1_speedup = num("metrics.fuzz.fig1.speedup", -1);
  return fv;
}

/// Inline SVG of a small line chart (coverage growth, cost-vs-n) — same
/// footprint as the ledger sparklines. `label` seeds the hover title.
[[nodiscard]] std::string curve_svg(
    const std::vector<double>& ys,
    const std::string& label = "unique schedules after each shard") {
  constexpr double kW = 240.0, kH = 40.0, kPad = 4.0;
  if (ys.size() < 2) return "";
  double lo = ys.front(), hi = ys.front();
  for (const double y : ys) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  const double span = hi - lo;
  std::string points;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double x = kPad + (kW - 2 * kPad) * static_cast<double>(i) /
                                static_cast<double>(ys.size() - 1);
    const double y = span <= 0.0
                         ? kH / 2
                         : kH - kPad - (kH - 2 * kPad) * (ys[i] - lo) / span;
    points += fmt(x) + "," + fmt(y) + " ";
  }
  return "<svg class=\"spark\" width=\"" + fmt(kW) + "\" height=\"" + fmt(kH) +
         "\" viewBox=\"0 0 " + fmt(kW) + " " + fmt(kH) + "\"><title>" +
         html_escape(label) + " (" + fmt(ys.front()) + " → " + fmt(ys.back()) +
         ")</title><polyline fill=\"none\" stroke=\"#6a8f52\" "
         "stroke-width=\"1.5\" points=\"" +
         points + "\"/></svg>";
}

// -- Deterministic profiling -------------------------------------------------

/// One phase of one named snapshot from a report's "profile" section.
struct ProfilePhaseRow {
  std::string snapshot, phase;
  double calls = 0, ns = 0;
};

/// One n-group of scaling_probe's `metrics.scaling_rows` chart data.
struct ProfileScalingRow {
  double n = 0, steps = 0;
  double scans = 0, quorum = 0, deliv = 0, scan_ns = 0;  // all per step
};

/// Everything the renderers need from a report's profiling instrumentation
/// (empty `present` for profile-off runs — the section simply isn't drawn).
/// `scaling` is non-empty only for scaling_probe reports, which publish the
/// structured cost-vs-n rows alongside their snapshots.
struct ProfileView {
  bool present = false;
  std::vector<ProfilePhaseRow> phases;
  std::vector<ProfileScalingRow> scaling;
};

[[nodiscard]] ProfileView profile_view(const Json& report) {
  ProfileView pv;
  const Json* prof = report.find("profile");
  if (prof == nullptr || !prof->is_object()) return pv;
  pv.present = true;
  for (const auto& [snap_name, snap] : prof->as_object()) {
    if (!snap.is_object()) continue;
    const Json* ph = snap.find("phases");
    if (ph == nullptr || !ph->is_object()) continue;
    for (const auto& [phase, stat] : ph->as_object()) {
      if (!stat.is_object()) continue;
      ProfilePhaseRow row;
      row.snapshot = snap_name;
      row.phase = phase;
      if (const Json* c = stat.find("calls"); c && c->is_number()) {
        row.calls = c->as_double();
      }
      if (const Json* ns = stat.find("ns"); ns && ns->is_number()) {
        row.ns = ns->as_double();
      }
      pv.phases.push_back(std::move(row));
    }
  }
  const Json* metrics = report.find("metrics");
  const Json* rows = metrics != nullptr && metrics->is_object()
                         ? metrics->find("scaling_rows")
                         : nullptr;
  if (rows != nullptr && rows->is_array()) {
    for (const Json& r : rows->as_array()) {
      if (!r.is_object()) continue;
      const auto num = [&r](const char* key) {
        const Json* v = r.find(key);
        return v != nullptr && v->is_number() ? v->as_double() : 0.0;
      };
      ProfileScalingRow s;
      s.n = num("n");
      s.steps = num("steps");
      s.scans = num("events_scanned_per_step");
      s.quorum = num("quorum_touches_per_step");
      s.deliv = num("deliveries_per_step");
      s.scan_ns = num("enabled_scan_ns_per_step");
      pv.scaling.push_back(s);
    }
  }
  return pv;
}

[[nodiscard]] const char* verdict_css(obs::Verdict v) {
  switch (v) {
    case obs::Verdict::kImproved: return "improved";
    case obs::Verdict::kRegressed: return "regressed";
    case obs::Verdict::kBoundViolated: return "violated";
    case obs::Verdict::kNeutral: return "neutral";
  }
  return "neutral";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "blunt_report: cannot write %s\n", path.c_str());
    return;
  }
  out << content;
}

std::string build_markdown(const std::vector<BenchState>& benches,
                           const std::vector<obs::MetricComparison>& all,
                           const obs::Ledger& ledger,
                           const std::vector<std::string>& errors) {
  std::ostringstream md;
  int regressed = 0, improved = 0, neutral = 0, violated = 0;
  for (const auto& c : all) {
    switch (c.verdict) {
      case obs::Verdict::kRegressed: ++regressed; break;
      case obs::Verdict::kImproved: ++improved; break;
      case obs::Verdict::kNeutral: ++neutral; break;
      case obs::Verdict::kBoundViolated: ++violated; break;
    }
  }
  md << "# blunt bench report\n\n";
  md << "- benches compared: " << benches.size() << "\n";
  md << "- ledger entries: " << ledger.entries.size() << " (corrupted lines skipped: "
     << ledger.skipped_lines << ")\n";
  md << "- verdicts: " << violated << " bound-violated, " << regressed
     << " regressed, " << improved << " improved, " << neutral
     << " neutral\n\n";
  if (!errors.empty()) {
    md << "## Unreadable reports\n\n";
    for (const auto& e : errors) md << "- `" << e << "`\n";
    md << "\n";
  }
  if (violated + regressed + improved > 0) {
    md << "## Findings\n\n";
    md << "| bench | metric | kind | verdict | baseline | current | evidence |\n";
    md << "|---|---|---|---|---|---|---|\n";
    for (const auto& c : all) {
      if (c.verdict == obs::Verdict::kNeutral) continue;
      md << "| " << c.bench << " | `" << c.metric << "` | " << c.kind << " | "
         << obs::to_string(c.verdict) << " | " << fmt(c.baseline) << " | "
         << fmt(c.current) << " | " << c.evidence << " |\n";
    }
    md << "\n";
  }
  md << "## Bound watchdog (Theorem 4.2)\n\n";
  bool any_bound = false;
  for (const auto& c : all) {
    if (c.kind != "bound") continue;
    any_bound = true;
    md << "- **" << c.bench << "** — " << obs::to_string(c.verdict) << ": "
       << c.evidence << "\n";
  }
  if (!any_bound) md << "(no bench declared a blunting instance)\n";
  md << "\n## Execution coverage\n\n";
  bool any_cov = false;
  for (const auto& b : benches) {
    const CoverageView cv = coverage_view(b.current);
    if (!cv.present) continue;
    if (!any_cov) {
      md << "| bench | schedules | 4-grams | object histories | new in last "
            "window | saturation |\n";
      md << "|---|---|---|---|---|---|\n";
      any_cov = true;
    }
    md << "| " << b.name << " | " << fmt(cv.schedules) << " | "
       << fmt(cv.ngrams) << " | " << fmt(cv.objects) << " | "
       << fmt(cv.new_last) << " (last " << cv.window_shards << " shard(s)) | "
       << cv.verdict << " |\n";
  }
  if (!any_cov) {
    md << "(no coverage-instrumented reports — run with `blunt_exp run "
          "<exp> --coverage`)\n";
  }
  bool any_fuzz = false;
  for (const auto& b : benches) {
    const FuzzView fv = fuzz_view(b.current);
    if (!fv.present) continue;
    if (!any_fuzz) {
      md << "\n## Greybox fuzzing\n\n";
      md << "| bench | corpus | corpus violations | found | shrunk | replay "
            "repairs | abd execs/find | abd speedup | fig1 execs/pair | fig1 "
            "speedup |\n";
      md << "|---|---|---|---|---|---|---|---|---|---|\n";
      any_fuzz = true;
    }
    const auto cell = [](double v) {
      return v < 0 ? std::string("-") : fmt(v);
    };
    md << "| " << b.name << " | " << fmt(fv.corpus_size) << " | "
       << fmt(fv.corpus_violations) << " | " << fmt(fv.found) << " | "
       << fmt(fv.shrunk) << " | " << fmt(fv.repairs) << " | "
       << cell(fv.abd_cost) << " | " << cell(fv.abd_speedup) << " | "
       << cell(fv.fig1_cost) << " | " << cell(fv.fig1_speedup) << " |\n";
  }
  md << "\n## Deterministic profiling\n\n";
  bool any_prof = false;
  for (const auto& b : benches) {
    const ProfileView pv = profile_view(b.current);
    if (!pv.present) continue;
    if (!any_prof) {
      md << "| bench | snapshot | phase | calls | ms (advisory) |\n";
      md << "|---|---|---|---|---|\n";
      any_prof = true;
    }
    for (const auto& row : pv.phases) {
      md << "| " << b.name << " | " << row.snapshot << " | `" << row.phase
         << "` | " << fmt(row.calls) << " | " << fmt(row.ns / 1e6) << " |\n";
    }
  }
  if (!any_prof) {
    md << "(no profiled reports — run with `blunt_exp run <exp> "
          "--profile`)\n";
  }
  for (const auto& b : benches) {
    const ProfileView pv = profile_view(b.current);
    if (pv.scaling.empty()) continue;
    md << "\n### Cost vs n — " << b.name << "\n\n";
    md << "| n | steps | scans/step | quorum/step | deliveries/step | scan "
          "ns/step |\n";
    md << "|---|---|---|---|---|---|\n";
    for (const auto& s : pv.scaling) {
      md << "| " << fmt(s.n) << " | " << fmt(s.steps) << " | " << fmt(s.scans)
         << " | " << fmt(s.quorum) << " | " << fmt(s.deliv) << " | "
         << fmt(s.scan_ns) << " |\n";
    }
  }
  md << "\n## Baselines\n\n";
  for (const auto& b : benches) {
    md << "- " << b.name << ": " << b.baseline_origin;
    if (b.baseline_stamp) {
      md << " (sha " << short_sha(b.baseline_stamp->git_sha) << ", "
         << iso_utc(b.baseline_stamp->timestamp_unix_s) << ", host "
         << b.baseline_stamp->hostname << ")";
    }
    const std::string prov = engine_provenance(b.current);
    if (!prov.empty()) md << " — " << prov;
    md << "\n";
  }
  md << "\n";
  return md.str();
}

std::string build_html(const std::vector<BenchState>& benches,
                       const std::vector<obs::MetricComparison>& all,
                       const obs::Ledger& ledger) {
  std::ostringstream html;
  html << "<!doctype html><html><head><meta charset=\"utf-8\">"
          "<title>blunt dashboard</title><style>\n"
          "body{font-family:system-ui,sans-serif;margin:24px;color:#1c2733}\n"
          "h1{font-size:22px}h2{font-size:17px;margin-top:28px}\n"
          "table{border-collapse:collapse;font-size:13px}\n"
          "td,th{border:1px solid #d5dce3;padding:4px 8px;text-align:left}\n"
          "th{background:#f0f3f6}\n"
          ".improved{background:#e4f3e6}.regressed{background:#fbe7e4}\n"
          ".violated{background:#f6c9c4;font-weight:600}\n"
          ".neutral{color:#5a6a78}\n"
          ".spark{vertical-align:middle}\n"
          ".margin-bar{height:14px;display:inline-block;background:#64a86e}\n"
          ".margin-bar.neg{background:#c0564a}\n"
          "code{background:#f0f3f6;padding:1px 4px;border-radius:3px}\n"
          "</style></head><body>\n";
  html << "<h1>blunt bench dashboard</h1>\n";
  html << "<p>" << ledger.entries.size() << " ledger entries ("
       << ledger.skipped_lines << " corrupted lines skipped); "
       << benches.size() << " benches.</p>\n";

  html << "<h2>Verdicts</h2>\n<table><tr><th>bench</th><th>metric</th>"
          "<th>kind</th><th>verdict</th><th>baseline</th><th>current</th>"
          "<th>evidence</th></tr>\n";
  for (const auto& c : all) {
    html << "<tr class=\"" << verdict_css(c.verdict) << "\"><td>"
         << html_escape(c.bench) << "</td><td><code>" << html_escape(c.metric)
         << "</code></td><td>" << c.kind << "</td><td>"
         << obs::to_string(c.verdict) << "</td><td>" << fmt(c.baseline)
         << "</td><td>" << fmt(c.current) << "</td><td>"
         << html_escape(c.evidence) << "</td></tr>\n";
  }
  html << "</table>\n";

  // Theorem 4.2 margin chart: how much slack each declared instance leaves
  // between its empirical estimate and the closed-form bound.
  html << "<h2>Theorem 4.2 bound margins</h2>\n<table><tr><th>bench</th>"
          "<th>bound</th><th>estimate</th><th>margin</th><th></th>"
          "<th>history</th></tr>\n";
  bool any_margin = false;
  for (const auto& b : benches) {
    const Json* bound = obs::resolve_metric_path(b.current, "metrics.bound_value");
    const Json* margin =
        obs::resolve_metric_path(b.current, "metrics.bound_margin");
    const Json* bad =
        obs::resolve_metric_path(b.current, "metrics.bad_probability");
    if (bound == nullptr || margin == nullptr) continue;
    any_margin = true;
    const double m = margin->as_double();
    const double px = std::min(200.0, std::abs(m) * 400.0);
    html << "<tr><td>" << html_escape(b.name) << "</td><td>"
         << fmt(bound->as_double()) << "</td><td>"
         << (bad ? fmt(bad->as_double()) : "-") << "</td><td>" << fmt(m)
         << "</td><td><span class=\"margin-bar" << (m < 0 ? " neg" : "")
         << "\" style=\"width:" << fmt(px) << "px\"></span></td><td>"
         << sparkline_svg(obs::metric_series(ledger, b.name,
                                             "metrics.bound_margin"))
         << "</td></tr>\n";
  }
  if (!any_margin) {
    html << "<tr><td colspan=\"6\" class=\"neutral\">no bench declared a "
            "blunting instance</td></tr>\n";
  }
  html << "</table>\n";

  // Execution coverage: the growth curve answers "did more trials still buy
  // new schedules?" — a plateaued curve means the trial budget saturated the
  // reachable interleaving space at this fingerprint granularity.
  html << "<h2>Execution coverage</h2>\n<table><tr><th>bench</th>"
          "<th>schedules</th><th>4-grams</th><th>object histories</th>"
          "<th>new in last window</th><th>saturation</th>"
          "<th>growth (unique schedules vs shard)</th></tr>\n";
  bool any_cov = false;
  for (const auto& b : benches) {
    const CoverageView cv = coverage_view(b.current);
    if (!cv.present) continue;
    any_cov = true;
    html << "<tr><td>" << html_escape(b.name) << "</td><td>"
         << fmt(cv.schedules) << "</td><td>" << fmt(cv.ngrams) << "</td><td>"
         << fmt(cv.objects) << "</td><td>" << fmt(cv.new_last) << " (last "
         << cv.window_shards << " shard(s))</td><td class=\""
         << (cv.verdict == "plateaued" ? "improved" : "neutral") << "\">"
         << cv.verdict << "</td><td>";
    const std::string curve = curve_svg(cv.growth);
    if (curve.empty()) {
      html << "<span class=\"neutral\">no growth curve</span>";
    } else {
      html << curve;
    }
    html << "</td></tr>\n";
  }
  if (!any_cov) {
    html << "<tr><td colspan=\"7\" class=\"neutral\">no "
            "coverage-instrumented reports (run with --coverage)</td></tr>\n";
  }
  html << "</table>\n";

  // Greybox fuzzing: corpus growth and the fuzz-vs-Monte-Carlo discovery
  // economics behind the ≥10x gate. Only drawn when a fuzz_search report is
  // present.
  bool any_fuzz = false;
  for (const auto& b : benches) {
    const FuzzView fv = fuzz_view(b.current);
    if (!fv.present) continue;
    if (!any_fuzz) {
      html << "<h2>Greybox fuzzing</h2>\n<table><tr><th>bench</th>"
              "<th>corpus</th><th>corpus violations</th><th>found</th>"
              "<th>shrunk</th><th>replay repairs</th><th>abd execs/find</th>"
              "<th>abd speedup</th><th>fig1 execs/pair</th>"
              "<th>fig1 speedup</th></tr>\n";
      any_fuzz = true;
    }
    const auto cell = [](double v) {
      return v < 0 ? std::string("<span class=\"neutral\">&mdash;</span>")
                   : fmt(v);
    };
    const auto speedup_css = [](double v) {
      if (v < 0) return "neutral";
      return v >= 10.0 ? "improved" : "regressed";
    };
    html << "<tr><td>" << html_escape(b.name) << "</td><td>"
         << fmt(fv.corpus_size) << "</td><td>" << fmt(fv.corpus_violations)
         << "</td><td>" << fmt(fv.found) << "</td><td>" << fmt(fv.shrunk)
         << "</td><td>" << fmt(fv.repairs) << "</td><td>"
         << cell(fv.abd_cost) << "</td><td class=\""
         << speedup_css(fv.abd_speedup) << "\">" << cell(fv.abd_speedup)
         << "</td><td>" << cell(fv.fig1_cost) << "</td><td class=\""
         << speedup_css(fv.fig1_speedup) << "\">" << cell(fv.fig1_speedup)
         << "</td></tr>\n";
  }
  if (any_fuzz) html << "</table>\n";

  // Deterministic profiling: per-subsystem cost attribution (exact call
  // counts, advisory wall time) plus scaling_probe's cost-vs-n chart — the
  // before/after yardstick for scheduler-scan optimizations.
  bool any_prof = false;
  for (const auto& b : benches) {
    const ProfileView pv = profile_view(b.current);
    if (!pv.present) continue;
    if (!any_prof) {
      html << "<h2>Deterministic profiling</h2>\n<table><tr><th>bench</th>"
              "<th>snapshot</th><th>phase</th><th>calls</th>"
              "<th>ms (advisory)</th></tr>\n";
      any_prof = true;
    }
    for (const auto& row : pv.phases) {
      html << "<tr><td>" << html_escape(b.name) << "</td><td>"
           << html_escape(row.snapshot) << "</td><td><code>"
           << html_escape(row.phase) << "</code></td><td>" << fmt(row.calls)
           << "</td><td>" << fmt(row.ns / 1e6) << "</td></tr>\n";
    }
  }
  if (any_prof) html << "</table>\n";
  for (const auto& b : benches) {
    const ProfileView pv = profile_view(b.current);
    if (pv.scaling.empty()) continue;
    html << "<h2>Cost vs n &mdash; " << html_escape(b.name)
         << "</h2>\n<table><tr><th>n</th><th>steps</th><th>scans/step</th>"
            "<th>quorum/step</th><th>deliveries/step</th>"
            "<th>scan ns/step</th></tr>\n";
    std::vector<double> scan_curve, quorum_curve;
    for (const auto& s : pv.scaling) {
      scan_curve.push_back(s.scans);
      quorum_curve.push_back(s.quorum);
      html << "<tr><td>" << fmt(s.n) << "</td><td>" << fmt(s.steps)
           << "</td><td>" << fmt(s.scans) << "</td><td>" << fmt(s.quorum)
           << "</td><td>" << fmt(s.deliv) << "</td><td>" << fmt(s.scan_ns)
           << "</td></tr>\n";
    }
    html << "<tr><td colspan=\"2\">events scanned/step vs n</td><td "
            "colspan=\"4\">"
         << curve_svg(scan_curve, "events scanned per step vs n")
         << "</td></tr>\n";
    html << "<tr><td colspan=\"2\">quorum touches/step vs n</td><td "
            "colspan=\"4\">"
         << curve_svg(quorum_curve, "quorum-map touches per step vs n")
         << "</td></tr>\n";
    html << "</table>\n";
  }

  // Per-bench sparklines across ledger entries (i.e. across commits).
  for (const auto& b : benches) {
    html << "<h2>" << html_escape(b.name) << "</h2>\n";
    const std::string prov = engine_provenance(b.current);
    if (!prov.empty()) {
      html << "<p class=\"neutral\">" << html_escape(prov) << "</p>\n";
    }
    html << "<table><tr>"
            "<th>metric</th><th>current</th><th>across commits</th></tr>\n";
    std::vector<std::string> paths;
    if (const Json* m = b.current.find("metrics"); m && m->is_object()) {
      for (const auto& [key, v] : m->as_object()) {
        const bool companion =
            key == "trials" ||
            (key.size() > 3 && key.compare(key.size() - 3, 3, "_lo") == 0) ||
            (key.size() > 3 && key.compare(key.size() - 3, 3, "_hi") == 0) ||
            (key.size() > 7 &&
             key.compare(key.size() - 7, 7, "_trials") == 0);
        if (v.is_number() && !companion) paths.push_back("metrics." + key);
      }
    }
    paths.push_back("timings_ms.total");
    paths.push_back("timings_ms.engine_trials");
    for (const std::string& path : paths) {
      // A missing metric renders as an em-dash cell rather than dropping the
      // row: the reader sees WHICH expected metric this report lacks (e.g. a
      // pre-engine ledger entry without timings_ms.engine_trials).
      const Json* v = obs::resolve_metric_path(b.current, path);
      const auto series = obs::metric_series(ledger, b.name, path);
      html << "<tr><td><code>" << html_escape(path) << "</code></td><td>";
      if (v == nullptr) {
        html << "<span class=\"neutral\">&mdash;</span>";
      } else {
        html << fmt(v->as_double());
      }
      html << "</td><td>";
      const std::string spark = sparkline_svg(series);
      if (spark.empty()) {
        html << "<span class=\"neutral\">" << series.size()
             << " ledger point(s)</span>";
      } else {
        html << spark;
      }
      html << "</td></tr>\n";
    }
    html << "</table>\n";
  }

  html << "<h2>Ledger</h2>\n<table><tr><th>#</th><th>bench</th><th>sha</th>"
          "<th>when (UTC)</th><th>host</th><th>flavor</th></tr>\n";
  for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
    const auto& e = ledger.entries[i];
    const Json* name = e.report.find("bench");
    html << "<tr><td>" << i << "</td><td>"
         << html_escape(name && name->is_string() ? name->as_string() : "?")
         << "</td><td><code>" << html_escape(short_sha(e.stamp.git_sha))
         << "</code></td><td>" << iso_utc(e.stamp.timestamp_unix_s)
         << "</td><td>" << html_escape(e.stamp.hostname) << "</td><td>"
         << html_escape(e.stamp.build_flavor) << "</td></tr>\n";
  }
  html << "</table>\n</body></html>\n";
  return html.str();
}

int run(int argc, char** argv) {
  const std::optional<Options> opts = parse_args(argc, argv);
  if (!opts) return 1;

  std::vector<std::string> errors;
  std::map<std::string, Json> current = scan_reports(opts->bench_dir, &errors);
  const obs::Ledger ledger = obs::load_ledger(opts->ledger_path);

  // Benches only present in the ledger still get compared (latest vs
  // previous entry) so the gate works on a bare ledger with no report files.
  std::map<std::string, std::vector<std::size_t>> by_bench;
  for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
    const Json* name = ledger.entries[i].report.find("bench");
    if (name != nullptr && name->is_string()) {
      by_bench[name->as_string()].push_back(i);
    }
  }
  for (const auto& [bench, idxs] : by_bench) {
    if (current.find(bench) == current.end()) {
      current[bench] = ledger.entries[idxs.back()].report;
    }
  }

  std::map<std::string, Json> against;
  if (!opts->against_dir.empty()) {
    against = scan_reports(opts->against_dir, &errors);
  }

  const obs::LedgerStamp here = obs::collect_stamp();
  std::vector<BenchState> benches;
  std::vector<obs::MetricComparison> all;
  for (auto& [name, report] : current) {
    BenchState b;
    b.name = name;
    b.current = report;
    b.baseline_origin = "none (bound watchdog only)";
    if (!opts->against_dir.empty()) {
      const auto it = against.find(name);
      if (it != against.end()) {
        b.baseline = it->second;
        b.baseline_origin = "--against " + opts->against_dir;
      }
    } else {
      const auto it = by_bench.find(name);
      if (it != by_bench.end() && !it->second.empty()) {
        // Skip the latest entry when it IS the current report (the bench
        // just appended it); otherwise compare against the latest.
        std::size_t pick = it->second.size();
        const std::size_t last = it->second.back();
        if (ledger.entries[last].report == b.current) {
          if (it->second.size() >= 2) pick = it->second.size() - 2;
        } else {
          pick = it->second.size() - 1;
        }
        if (pick < it->second.size()) {
          const std::size_t entry = it->second[pick];
          b.baseline = ledger.entries[entry].report;
          b.baseline_stamp = ledger.entries[entry].stamp;
          b.baseline_origin = "ledger entry #" + std::to_string(entry);
        }
      }
    }

    if (b.baseline) {
      obs::CompareOptions copts;
      copts.trust_timings =
          opts->trust_timings ||
          (b.baseline_stamp && b.baseline_stamp->hostname == here.hostname);
      const obs::CompareResult r =
          obs::compare_reports(*b.baseline, b.current, copts);
      all.insert(all.end(), r.comparisons.begin(), r.comparisons.end());
    } else {
      for (auto& c : obs::check_thm42_bound(b.current)) {
        all.push_back(std::move(c));
      }
    }
    benches.push_back(std::move(b));
  }

  write_file(opts->out_md, build_markdown(benches, all, ledger, errors));
  write_file(opts->out_html, build_html(benches, all, ledger));

  bool regression = !errors.empty();
  bool violation = false;
  for (const auto& e : errors) {
    std::printf("UNREADABLE: %s\n", e.c_str());
  }
  for (const auto& c : all) {
    if (c.verdict == obs::Verdict::kRegressed) {
      regression = true;
      std::printf("REGRESSED: %s %s — %s\n", c.bench.c_str(), c.metric.c_str(),
                  c.evidence.c_str());
    } else if (c.verdict == obs::Verdict::kBoundViolated) {
      violation = true;
      std::printf("BOUND VIOLATION: %s %s — %s\n", c.bench.c_str(),
                  c.metric.c_str(), c.evidence.c_str());
    } else if (c.verdict == obs::Verdict::kImproved) {
      std::printf("improved: %s %s — %s\n", c.bench.c_str(), c.metric.c_str(),
                  c.evidence.c_str());
    }
  }
  std::printf(
      "blunt_report: %zu benches, %zu comparisons, %zu ledger entries "
      "(%d corrupted lines skipped)\n",
      benches.size(), all.size(), ledger.entries.size(),
      ledger.skipped_lines);
  std::printf("  markdown:  %s\n  dashboard: %s\n", opts->out_md.c_str(),
              opts->out_html.c_str());
  if (violation) {
    std::printf("verdict: THEOREM 4.2 BOUND VIOLATED\n");
    return opts->no_gate ? 0 : 2;
  }
  if (regression) {
    std::printf("verdict: REGRESSED\n");
    return opts->no_gate ? 0 : 1;
  }
  std::printf("verdict: clean\n");
  return 0;
}

}  // namespace
}  // namespace blunt

int main(int argc, char** argv) { return blunt::run(argc, argv); }
