// Shared plumbing for the perfbench workloads: clock, seed derivation,
// order statistics, memory probes, and the result every workload returns.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer. Every input of every workload is a pure function of
/// (workload seed, stream, index) through this mix, so one seed names one
/// input set on every host.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Durations in log-spaced buckets 0.1% wide: quantiles of any number of
/// samples in fixed memory, so the benchmark's own bookkeeping does not grow
/// the peak RSS it reports.
class LatencyHistogram {
 public:
  void add(std::int64_t ns);
  /// The q-quantile (q in [0, 1]) in microseconds, to within 0.05%.
  [[nodiscard]] double quantile_us(double q) const;
  [[nodiscard]] std::int64_t count() const { return count_; }

 private:
  // 1.001^27700 ns is past 1000 s.
  static constexpr std::size_t kBuckets = 27700;
  std::vector<std::int64_t> counts_ = std::vector<std::int64_t>(kBuckets);
  std::int64_t count_ = 0;
};

/// Current resident set size in bytes (from /proc/self/statm).
std::int64_t current_rss_bytes();
/// Peak resident set size of this process in bytes (getrusage).
std::int64_t peak_rss_bytes();
/// Median cost of one steady_clock read, in ns.
double clock_read_ns();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: its metrics plus the tally of
/// output checks. A failed check is printed with the seed that reproduces it
/// the moment it is recorded, and is never dropped from the count.
class Result {
 public:
  explicit Result(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Informational line: printed, not part of the result object.
  void info(const std::string& line) { info_.push_back(line); }

  /// Records one output check. `where()` names the input (trial index and
  /// the seeds derived for it) so the failure can be rerun; it is only
  /// called on failure.
  template <class Where>
  void check(bool ok, const Where& where, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    // Repeated passes re-run the same inputs; print each distinct failure
    // once, count every one.
    const std::string at = where();
    if (printed_.insert(at + what).second) {
      std::fprintf(stderr, "FAIL workload=%s seed=%llu %s: %s\n",
                   workload_.c_str(), static_cast<unsigned long long>(seed_),
                   at.c_str(), what.c_str());
    }
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& infos() const { return info_; }
  [[nodiscard]] const std::string& workload() const { return workload_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  std::set<std::string> printed_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Runs `setup` `reps` times, keeping the last product, and returns the
/// median set-up wall time in seconds alongside it.
template <class F>
auto timed_setup(int reps, F&& setup, Result& r) {
  std::vector<double> secs;
  auto product = [&] {
    const std::int64_t t0 = now_ns();
    auto p = setup();
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return p;
  }();
  for (int rep = 1; rep < reps; ++rep) {
    const std::int64_t t0 = now_ns();
    product = setup();
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::string line = "setup samples (s):";
  for (const double s : secs) {
    line += ' ';
    line += std::to_string(s);
  }
  r.info(line);
  return std::pair{std::move(product), median(secs)};
}

void run_mc_paper(const Options& o, Result& r);
void run_wide_n(const Options& o, Result& r);
void run_chaos_lin(const Options& o, Result& r);
void run_exact_game(const Options& o, Result& r);

}  // namespace perfbench
