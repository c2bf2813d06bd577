// blunt_exp — the unified experiment runner.
//
//   blunt_exp --list
//   blunt_exp run <experiment> [--threads N] [--trials N] [--seed S]
//                 [--shard-size N] [--bench-dir DIR]
//
// Runs a registered experiment on the deterministic parallel engine
// (src/exp): trials shard across a work-stealing pool, per-trial seeds
// derive purely from (seed, trial index), and the merged result — and hence
// the report's metrics section — is bit-identical for every --threads value.
// Reports are the standard schema-v1 BENCH_<name>.json files. A run that
// was killed is recovered by running it again.
//
// Any other flag is refused with exit 2. Wall-clock speed is measured by
// perfbench/ as a same-host A/B, not by this runner.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "exp/parse.hpp"
#include "exp/runner.hpp"

namespace {

using blunt::exp::parse_number;

int list_experiments() {
  blunt::exp::register_builtin_experiments();
  std::printf("registered experiments:\n");
  for (const blunt::exp::Experiment* e : blunt::exp::list_experiments()) {
    std::printf("  %-20s %s\n", e->name.c_str(), e->description.c_str());
    std::printf("  %-20s   (default trials %lld, seed %llu)\n", "",
                static_cast<long long>(e->default_trials),
                static_cast<unsigned long long>(e->default_seed));
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --list\n"
      "       %s run <experiment> [--threads N] [--trials N] [--seed S]\n"
      "           [--shard-size N] [--bench-dir DIR]\n",
      argv0, argv0);
  return 2;
}

/// A count flag's value. A negative count would read as "use the default",
/// so it is refused, naming the flag, with exit 2.
template <typename T>
T parse_count(const std::string& flag, const std::string& text) {
  const T v = parse_number<T>(flag, text);
  if (v < 0) {
    std::fprintf(stderr, "%s: '%s' must not be negative\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "--list") == 0 ||
      std::strcmp(argv[1], "list") == 0) {
    return list_experiments();
  }
  if (std::strcmp(argv[1], "run") != 0 || argc < 3) return usage(argv[0]);

  const std::string name = argv[2];
  blunt::exp::RunOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--threads") {
      opts.threads = parse_number<int>(flag, value());
      if (opts.threads < 1) opts.threads = 1;
    } else if (flag == "--trials") {
      opts.trials = parse_count<std::int64_t>(flag, value());
    } else if (flag == "--seed") {
      opts.has_seed = true;
      opts.seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--shard-size") {
      opts.shard_size = parse_count<int>(flag, value());
    } else if (flag == "--bench-dir") {
      setenv("BLUNT_BENCH_DIR", value(), /*overwrite=*/1);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return usage(argv[0]);
    }
  }

  return blunt::exp::run_registered(name, opts);
}
