#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

namespace {
const double kLogGrowth = std::log(1.001);
}  // namespace

void LatencyHistogram::add(std::int64_t ns) {
  const double b =
      std::log(static_cast<double>(std::max<std::int64_t>(ns, 1))) /
      kLogGrowth;
  ++counts_[std::min(static_cast<std::size_t>(b), kBuckets - 1)];
  ++count_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  // Same rank convention as quantile(): position q * (n - 1), 0-based.
  const auto rank =
      static_cast<std::int64_t>(q * static_cast<double>(count_ - 1));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (seen + counts_[b] > rank) {
      // Spread the bucket's samples evenly (in log space) across its width.
      const double within = (static_cast<double>(rank - seen) + 0.5) /
                            static_cast<double>(counts_[b]);
      return std::exp((static_cast<double>(b) + within) * kLogGrowth) / 1e3;
    }
    seen += counts_[b];
  }
  return std::exp(static_cast<double>(kBuckets) * kLogGrowth) / 1e3;
}

std::int64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

std::int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

double clock_read_ns() {
  constexpr int kReads = 1 << 16;
  std::vector<double> per_read;
  for (int round = 0; round < 9; ++round) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) (void)now_ns();  // an opaque vDSO call
    per_read.push_back(static_cast<double>(now_ns() - t0) / kReads);
  }
  return median(per_read);
}

}  // namespace perfbench
