// perfbench: one workload per invocation, measured from outside the library
// by timing calls into its public API.
//
//   perfbench --workload <mc_paper|wide_n|exact_game|chaos_lin> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints every metric by name and unit, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any output check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mc_paper|wide_n|exact_game|chaos_lin> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') err = "bad --seed";
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        err = "bad --seconds";
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        err = "bad --trace";
      }
      o.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      err = "unknown flag " + flag;
    }
    if (!err.empty()) return false;
  }
  if (o.workload.empty()) err = "missing --workload";
  return err.empty();
}

void print_result(Result& r) {
  for (const perfbench::Metric& m : r.metrics()) {
    r.check(std::isfinite(m.value), [&] { return "metric " + m.name; },
            "value is not finite");
  }
  std::printf("workload %s seed %llu\n", r.workload().c_str(),
              static_cast<unsigned long long>(r.seed()));
  for (const perfbench::Metric& m : r.metrics()) {
    std::printf("  %-34s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& line : r.infos()) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("  fail_share %lld/%lld = %.6f\n",
              static_cast<long long>(r.failed()),
              static_cast<long long>(r.attempted()),
              r.attempted() == 0 ? 0.0
                                 : static_cast<double>(r.failed()) /
                                       static_cast<double>(r.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed() == 0 ? "true" : "false",
              static_cast<long long>(r.attempted()),
              static_cast<long long>(r.failed()));
  bool first = true;
  for (const perfbench::Metric& m : r.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string err;
  if (!parse(argc, argv, o, err)) return usage(err.c_str());
  Result r(o.workload, o.seed);
  if (o.workload == "mc_paper") {
    perfbench::run_mc_paper(o, r);
  } else if (o.workload == "wide_n") {
    perfbench::run_wide_n(o, r);
  } else if (o.workload == "exact_game") {
    perfbench::run_exact_game(o, r);
  } else if (o.workload == "chaos_lin") {
    perfbench::run_chaos_lin(o, r);
  } else {
    return usage(("unknown workload " + o.workload).c_str());
  }
  if (r.attempted() == 0) {
    r.check(false, [] { return std::string("run"); }, "no output was checked");
  }
  print_result(r);
  return r.failed() == 0 ? 0 : 1;
}
