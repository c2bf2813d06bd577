// Shared workload builders and report conventions for the registered
// experiments (src/exp/exp_*.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adversary/mc_search.hpp"
#include "common/assert.hpp"
#include "common/stats.hpp"
#include "core/bounds.hpp"
#include "exp/accumulator.hpp"
#include "exp/experiment.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/strong.hpp"
#include "objects/abd.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/prof_export.hpp"
#include "obs/report.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::exp {

/// Replication width of the weakener's ABD registers (the paper's n = 3).
/// Shared by make_abd_weakener and the sweep experiments so a sweep can vary
/// it in one place.
inline constexpr int kWeakenerNumProcesses = 3;

/// Wing–Gong verdict on `w`'s history. Every "yes" is certified: its
/// witness must pass lin::validate_linearization, and a witness that does
/// not is a checker bug, so the run aborts.
inline bool certified_linearizable(const sim::World& w,
                                   const lin::SequentialSpec& spec) {
  const lin::History h = lin::History::from_world(w);
  const lin::LinearizationResult r = lin::check_linearizable(h, spec);
  if (r.linearizable) {
    std::string why;
    BLUNT_ASSERT(lin::validate_linearization(h, spec, r.witness, &why),
                 "Wing-Gong witness fails validation: " << why);
  }
  return r.linearizable;
}

/// Tail-strong verdict on `tree`. Every "yes" is certified: each node's
/// order must pass lin::validate_linearization against that node's history
/// and extend its parent's order, and a certificate that does not is a
/// checker bug, so the run aborts.
inline bool certified_tail_strong(const lin::PrefixTree& tree,
                                  const lin::SequentialSpec& spec) {
  const lin::StrongCheckResult r = lin::check_prefix_tree(tree, spec);
  if (!r.ok) return false;
  const auto orders = [&r](int node) -> const std::vector<InvocationId>& {
    return r.linearizations[static_cast<std::size_t>(node)];
  };
  BLUNT_ASSERT(r.linearizations.size() == static_cast<std::size_t>(tree.size()),
               "tail-strong certificate has " << r.linearizations.size()
                   << " orders for " << tree.size() << " nodes");
  for (int n = 0; n < tree.size(); ++n) {
    std::string why;
    BLUNT_ASSERT(
        lin::validate_linearization(tree.node(n).h, spec, orders(n), &why),
        "tail-strong order of node " << n << " fails validation: " << why);
    if (n == 0) continue;
    const std::vector<InvocationId>& up = orders(tree.node(n).parent);
    BLUNT_ASSERT(up.size() <= orders(n).size() &&
                     std::equal(up.begin(), up.end(), orders(n).begin()),
                 "tail-strong order of node " << n
                     << " does not extend its parent's");
  }
  return true;
}

/// Weakener over ABD^k registers, coin seeded for Monte-Carlo trials.
/// `num_processes` is the ABD replication width n (not the number of
/// weakener processes, which Algorithm 1 fixes at three): pids 0-2 run the
/// weakener and pids 3..n-1 are replica-only hosts, whose servers answer in
/// atomic message handlers while the process itself just retires.
/// Deliveries target every pid < n, so the world must know all n of them.
/// `metrics` turns on the world's observability registry (reach it via
/// inst.world->metrics()).
/// `trace_detail` selects how much of the trace is materialized; executions
/// are bit-identical across levels (see sim::TraceDetail), so MC trial
/// bodies that never read the trace pass kNone to stay off the allocator.
/// `profile` turns on the world's deterministic profiler (purely
/// observational; read it via inst.world->profiler()).
/// The step budget grows with n: a run takes about 37 steps per replica
/// (about 366k at n = 10^4, past the default 200,000 from n of about 5,500).
inline adversary::McInstance make_abd_weakener(
    std::uint64_t coin_seed, int k,
    int num_processes = kWeakenerNumProcesses, bool metrics = false,
    sim::TraceDetail trace_detail = sim::TraceDetail::kFull,
    bool profile = false) {
  adversary::McInstance inst;
  inst.world = std::make_unique<sim::World>(
      sim::Config{.max_steps = 200000 + 64 * num_processes,
                  .metrics = metrics,
                  .trace_detail = trace_detail,
                  .profile = profile},
      std::make_unique<sim::SeededCoin>(coin_seed));
  auto r = std::make_shared<objects::AbdRegister>(
      "R", *inst.world,
      objects::AbdRegister::Options{.num_processes = num_processes,
                                    .preamble_iterations = k});
  auto c = std::make_shared<objects::AbdRegister>(
      "C", *inst.world,
      objects::AbdRegister::Options{.num_processes = num_processes,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = k});
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*inst.world, *r, *c, *out);
  for (Pid pid = 3; pid < num_processes; ++pid) {
    inst.world->add_process(std::string("s").append(std::to_string(pid)),
                            [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  inst.bad = [out] { return out->looped(); };
  inst.owned = {r, c, out};
  return inst;
}

/// One metrics-enabled weakener-over-ABD^k run under a uniformly random
/// scheduler: the representative instrumented run whose registry snapshot
/// every report carries (step counts by kind, messages, quorum round trips,
/// preamble iterations, invocation latencies).
struct ProbeRun {
  obs::MetricsSnapshot snapshot;
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  bool bad = false;
};

inline ProbeRun run_instrumented_weakener(
    std::uint64_t coin_seed, std::uint64_t sched_seed, int k,
    int num_processes = kWeakenerNumProcesses) {
  adversary::McInstance inst =
      make_abd_weakener(coin_seed, k, num_processes, /*metrics=*/true);
  sim::UniformAdversary adv(sched_seed);
  const sim::RunResult res = inst.world->run(adv);
  ProbeRun probe;
  probe.snapshot = inst.world->metrics()->snapshot();
  probe.status = res.status;
  probe.steps = res.steps;
  probe.bad = inst.bad();
  return probe;
}

/// Guarantees the canonical cross-bench counters exist (as zeros) even when
/// a workload never exercises them — e.g. atomic-register experiments send no
/// messages — so every BENCH_*.json exposes the same counter keys.
inline void ensure_canonical_counters(obs::MetricsSnapshot& s) {
  for (const char* name :
       {obs::kMessagesSent, obs::kMessagesDelivered, obs::kMessagesDropped,
        obs::kQuorumRoundTrips, obs::kPreambleExecuted, obs::kPreambleKept,
        obs::kRandomDraws, obs::kFaultMessagesLost,
        obs::kFaultMessagesDuplicated, obs::kFaultPartitionsOpened,
        obs::kFaultPartitionsHealed, obs::kFaultRetransmissions,
        obs::kFaultCrashesInjected}) {
    s.counters.emplace(name, 0);
  }
}

/// Merges an instrumented run into the report's registry section, with the
/// canonical counters guaranteed present.
inline void merge_probe(obs::BenchReport& report, obs::MetricsSnapshot s) {
  ensure_canonical_counters(s);
  report.merge_registry(s);
}

/// Probability reporting convention: a Bernoulli metric `K` always travels
/// with `K_lo`, `K_hi` (Wilson 95% interval) and `K_trials`, so a reader
/// never has to guess sample sizes. The headline `bad_probability`
/// additionally gets the plain `trials` key, and its `_lo` is what the
/// Theorem 4.2 watchdog (obs::check_thm42_bound) holds against the bound.
/// The baseline gate compares every one of these keys exactly.
inline void set_bernoulli_metric(obs::BenchReport& report,
                                 const std::string& key,
                                 std::int64_t successes, std::int64_t trials) {
  const Interval iv = wilson_interval(successes, trials);
  report.set_metric(key, trials == 0 ? 0.0
                                     : static_cast<double>(successes) /
                                           static_cast<double>(trials));
  report.set_metric(key + "_lo", iv.lo);
  report.set_metric(key + "_hi", iv.hi);
  report.set_metric_int(key + "_trials", trials);
  if (key == "bad_probability") report.set_metric_int("trials", trials);
}

inline void set_bernoulli_metric(obs::BenchReport& report,
                                 const std::string& key,
                                 const BernoulliEstimator& est) {
  set_bernoulli_metric(report, key, est.successes(), est.trials());
}

/// Analytic / exactly-solved probabilities carry a degenerate interval and
/// `_trials` = 0, the marker for "not a sample", so they read like sampled
/// ones and the watchdog finds their `_lo` where it finds a sampled one's.
inline void set_exact_probability(obs::BenchReport& report,
                                  const std::string& key, double value) {
  report.set_metric(key, value);
  report.set_metric(key + "_lo", value);
  report.set_metric(key + "_hi", value);
  report.set_metric_int(key + "_trials", 0);
  if (key == "bad_probability") report.set_metric_int("trials", 0);
}

/// Declares the report's blunting instance for the Theorem 4.2 watchdog:
/// obs::check_thm42_bound recomputes the closed-form bound from (k, r, n,
/// Prob[O], Prob[O_a]) and fails any report whose `bad_probability_lo`
/// lies above it or whose `bound_value` disagrees with it, so the report
/// must also carry `bad_probability` through set_bernoulli_metric or
/// set_exact_probability. `empirical_bad` feeds the bound_margin headline
/// (how much slack the measurement leaves).
inline void set_thm42_instance(obs::BenchReport& report, int k, int r, int n,
                               double prob_lin, double prob_atomic,
                               double empirical_bad) {
  const double bound = core::theorem42_bound_f(k, r, n, prob_lin, prob_atomic);
  report.set_metric_int("thm42_k", k);
  report.set_metric_int("thm42_r", r);
  report.set_metric_int("thm42_n", n);
  report.set_metric("thm42_prob_lin", prob_lin);
  report.set_metric("thm42_prob_atomic", prob_atomic);
  report.set_metric("bound_value", bound);
  report.set_metric("bound_margin", bound - empirical_bad);
}

/// Writes BENCH_<name>.json and echoes where it went (on a single line, so
/// the human tables above stay the primary console artifact). Throws,
/// naming the path, when the report cannot be written.
inline void write_report(obs::BenchReport& report) {
  const std::string path = report.write();
  std::printf("\nbench report: %s\n", path.c_str());
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule() {
  std::printf("---------------------------------------------------------------"
              "---------------\n");
}

// -- Deterministic-profiling conventions --------------------------------------
//
// Profiled trials fold each world's ProfileSnapshot into the shard
// accumulator under a name (per-n names like "n16" for the scaling probe,
// which profiles every trial). record_profile is the one call a
// trial body makes after a profiled run; report_profile is the one call
// finalize makes to publish the merged snapshots: exact counters become
// `profile.<name>.<counter>` integer metrics (so the baseline gate compares
// them), advisory phase timings go to timings_ms, and the full structured
// snapshots land in the report's optional "profile" section. The
// allocation tallies (`alloc_calls`, `bytes_allocated`) stay out of
// `metrics`: they count the standard library's own allocations, so they
// move with its build, not only with this code. They stay in the profile
// section and on the console.

/// Folds one profiled world into the shard accumulator. No-op when the world
/// was built without Config::profile, so unconditional call sites stay on
/// the pre-profiling path.
inline void record_profile(Accumulator& acc, const std::string& name,
                           const sim::World& world) {
  if (world.profiler() == nullptr) return;
  acc.profile(name).merge(world.profiler()->snapshot());
}

/// Same, for a profiler handle (e.g. a lin-checker profiler owned by the
/// trial body rather than a world).
inline void record_profile(Accumulator& acc, const std::string& name,
                           const obs::Profiler* prof) {
  if (prof == nullptr) return;
  acc.profile(name).merge(prof->snapshot());
}

/// Publishes merged profiles and prints the console cost table. No-op when
/// no trial recorded a profile, so reports of unprofiled experiments carry
/// no profile state.
inline void report_profile(obs::BenchReport& report, const Accumulator& acc) {
  if (acc.profiles().empty()) return;
  for (const auto& [name, snap] : acc.profiles()) {
    report.set_profile(name, obs::profile_to_json(snap));
    for (int c = 0; c < obs::kNumCounters; ++c) {
      const auto counter = static_cast<obs::ProfCounter>(c);
      const std::int64_t v = snap.counter(counter);
      if (v == 0 || counter == obs::ProfCounter::kAllocCalls ||
          counter == obs::ProfCounter::kBytesAllocated) {
        continue;
      }
      report.set_metric_int(
          "profile." + name + "." + obs::counter_name(counter), v);
    }
    for (int p = 0; p < obs::kNumPhases; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      const obs::PhaseStat& st = snap.phase(phase);
      if (st.calls == 0) continue;
      // Advisory wall-clock, same status as the engine's other timings.
      report.add_timing_ms("profile." + name + "." + obs::phase_name(phase),
                           static_cast<double>(st.ns) / 1e6);
    }
  }

  print_header("profile (exact counters; timings advisory)");
  for (const auto& [name, snap] : acc.profiles()) {
    std::printf("  [%s]\n", name.c_str());
    for (int p = 0; p < obs::kNumPhases; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      const obs::PhaseStat& st = snap.phase(phase);
      if (st.calls == 0) continue;
      std::printf("    %-24s %12lld calls %12.3f ms\n", obs::phase_name(phase),
                  static_cast<long long>(st.calls),
                  static_cast<double>(st.ns) / 1e6);
    }
    for (int c = 0; c < obs::kNumCounters; ++c) {
      const auto counter = static_cast<obs::ProfCounter>(c);
      const std::int64_t v = snap.counter(counter);
      if (v == 0) continue;
      std::printf("    %-24s %12lld\n", obs::counter_name(counter),
                  static_cast<long long>(v));
    }
  }
}

}  // namespace blunt::exp
