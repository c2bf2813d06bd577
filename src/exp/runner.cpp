#include "exp/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/workloads.hpp"
#include "obs/prof_export.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"

namespace blunt::exp {

int run_and_report(const Experiment& e, const RunOptions& opts) {
  const RunOutput out = run_trials(e, opts);

  obs::BenchReport report(e.name);
  int rc = 0;
  if (e.finalize) rc = e.finalize(report, out.merged, out.info);

  report.set_environment_int("engine_threads", out.info.threads);
  report.set_environment_int("engine_shard_size", out.info.shard_size);
  report.set_environment_int("engine_trials", out.info.trials);
  report.set_environment_int("engine_seed",
                             static_cast<std::int64_t>(out.info.seed));
  report.set_environment_int("engine_shards_total", out.info.shards_total);
  report.add_timing_ms("engine_trials", out.info.wall_ms);

  write_report(report);

  // Runs whose trials recorded profiles additionally emit a collapsed-stack
  // flamegraph next to the report: one block per named snapshot, rooted at
  // the snapshot name, ready for flamegraph.pl / speedscope.
  if (!out.merged.profiles().empty()) {
    std::string dir = ".";
    if (const char* env = std::getenv("BLUNT_BENCH_DIR")) {
      if (*env != '\0') dir = env;
    }
    const std::string flame_path = dir + "/BENCH_" + e.name + ".flame.txt";
    std::string flame;
    for (const auto& [name, snap] : out.merged.profiles()) {
      flame += obs::profile_to_collapsed_stacks(snap, name);
    }
    try {
      obs::write_text_file(flame_path, flame);
      std::printf("flamegraph: %s\n", flame_path.c_str());
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "flamegraph write FAILED: %s\n", ex.what());
    }
  }
  return rc;
}

int run_registered(const std::string& name, const RunOptions& opts) {
  register_builtin_experiments();
  const Experiment* e = find_experiment(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown experiment '%s' (try --list)\n",
                 name.c_str());
    return 2;
  }
  // The one place a failed run is reported: a report that cannot be written
  // (the message names its path), or any other error a trial raised.
  try {
    return run_and_report(*e, opts);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s FAILED: %s\n", name.c_str(), ex.what());
    return 1;
  }
}

}  // namespace blunt::exp
