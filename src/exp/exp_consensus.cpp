// Application-level exhibit: Ben-Or-style randomized consensus over the
// register catalogue (the class of programs the paper's introduction
// motivates).
//
// Safety (agreement, validity) holds for every implementation on every run —
// linearizability preserves safety properties. Termination is probabilistic;
// under the (weak) random scheduler all implementations decide within a few
// rounds; the implementation changes the cost (scheduler steps per decision)
// — and, per the paper, a STRONG adversary's ability to delay termination,
// which Theorem 4.2 caps for the transformed objects.
//
// The registry section comes from each implementation's seed-1 run, made
// with metrics on. Metrics never change a schedule, so that run still counts
// toward the table like any other.
#include <cstdio>
#include <functional>

#include "common/stats.hpp"
#include "exp/workloads.hpp"
#include "objects/abd.hpp"
#include "objects/atomic.hpp"
#include "objects/vitanyi.hpp"
#include "programs/ben_or.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

using programs::BenOrConfig;
using programs::BenOrOutcome;
using programs::RegisterFactory;

struct Row {
  const char* name;
  std::function<RegisterFactory(sim::World&)> make;
};

int finalize(obs::BenchReport& report, const Accumulator&, const RunInfo&) {
  print_header(
      "Ben-Or randomized consensus over the register catalogue (3 processes, "
      "inputs 0,1,1)");
  const Row rows[] = {
      {"atomic registers",
       [](sim::World& w) -> RegisterFactory {
         return [&w](std::string name) {
           return std::make_shared<objects::AtomicRegister>(std::move(name),
                                                            w, sim::Value{});
         };
       }},
      {"ABD (k=1)",
       [](sim::World& w) -> RegisterFactory {
         return [&w](std::string name) {
           return std::make_shared<objects::AbdRegister>(
               std::move(name), w,
               objects::AbdRegister::Options{.num_processes = 3});
         };
       }},
      {"ABD^2",
       [](sim::World& w) -> RegisterFactory {
         return [&w](std::string name) {
           return std::make_shared<objects::AbdRegister>(
               std::move(name), w,
               objects::AbdRegister::Options{.num_processes = 3,
                                             .preamble_iterations = 2});
         };
       }},
      {"Vitanyi-Awerbuch (k=1)",
       [](sim::World& w) -> RegisterFactory {
         return [&w](std::string name) {
           return std::make_shared<objects::VitanyiRegister>(
               std::move(name), w,
               objects::VitanyiRegister::Options{.num_processes = 3});
         };
       }},
  };

  print_rule();
  std::printf("%-26s %8s %10s %10s %10s %12s %10s\n", "registers", "runs",
              "decided", "agree", "valid", "rounds avg", "steps avg");
  print_rule();
  obs::JsonArray impl_rows;
  int pooled_runs = 0;
  int pooled_decided = 0;
  for (const Row& row : rows) {
    const int runs = 60;
    int decided = 0;
    int agree = 0;
    int valid = 0;
    RunningStats rounds;
    RunningStats steps;
    for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(runs);
         ++seed) {
      auto w = std::make_unique<sim::World>(
          sim::Config{.max_steps = 4000000, .metrics = seed == 1},
          std::make_unique<sim::SeededCoin>(seed));
      BenOrConfig cfg{.num_processes = 3, .max_rounds = 8,
                      .inputs = {0, 1, 1}};
      BenOrOutcome out;
      auto regs = programs::install_ben_or(*w, cfg, row.make(*w), out);
      sim::UniformAdversary adv(seed * 17 + 3);
      const sim::RunResult res = w->run(adv);
      // The registry accumulates step kinds, messages, and preamble
      // iterations across rows.
      if (seed == 1) report.merge_registry(w->metrics()->snapshot());
      if (res.status != sim::RunStatus::kCompleted) continue;
      steps.add(res.steps);
      if (out.all_decided()) {
        ++decided;
        int worst = 0;
        for (const int r : out.decided_round) worst = std::max(worst, r);
        rounds.add(worst);
      }
      if (out.agreement()) ++agree;
      if (out.validity(cfg.inputs)) ++valid;
    }
    std::printf("%-26s %8d %10d %10d %10d %12.2f %10.0f\n", row.name, runs,
                decided, agree, valid, rounds.mean(), steps.mean());

    obs::JsonObject jrow;
    jrow["registers"] = obs::Json(std::string(row.name));
    jrow["runs"] = obs::Json(runs);
    jrow["decided"] = obs::Json(decided);
    jrow["agreement"] = obs::Json(agree);
    jrow["validity"] = obs::Json(valid);
    jrow["rounds_avg"] = obs::Json(rounds.mean());
    jrow["steps_avg"] = obs::Json(steps.mean());
    impl_rows.emplace_back(std::move(jrow));
    pooled_runs += runs;
    pooled_decided += decided;
  }
  // Bad outcome for consensus = not everyone decided within max_rounds
  // (under the weak random scheduler; expected ~0 for every implementation).
  set_bernoulli_metric(report, "bad_probability",
                       pooled_runs - pooled_decided, pooled_runs);
  report.set_metric_json("implementations", obs::Json(std::move(impl_rows)));
  report.set_environment_int("runs_per_impl", 60);
  print_rule();
  std::printf(
      "safety (agreement, validity) is 100%% for every implementation — "
      "linearizability\npreserves safety; the implementation only changes "
      "cost and the STRONG adversary's\nleverage over termination "
      "(Theorem 4.2 caps it for the transformed objects).\n");
  return 0;
}

}  // namespace

Experiment make_consensus_experiment() {
  return {.name = "consensus",
          .description = "Ben-Or consensus over atomic, ABD, ABD^2 and VA "
                         "registers (finalize only)",
          .finalize = finalize};
}

}  // namespace blunt::exp
