// E2 (Figure 1 / Appendix A.2): the explicit strong adversary against plain
// ABD registers.
//
// Reproduces: a strong adversary forces p2 to loop forever with probability 1
// (termination probability 0) when the weakener's registers are ABD. The
// experiment replays the paper's schedule for both coin outcomes, prints the
// outcomes, verifies each execution is still linearizable, and shows that the
// branch pair refutes strong linearizability of ABD while passing the
// tail-strong check w.r.t. Π_ABD (Theorem 5.1).
#include <cstdio>

#include "adversary/figure1.hpp"
#include "exp/workloads.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/strong.hpp"

namespace blunt::exp {
namespace {

int finalize(obs::BenchReport& report, const Accumulator&, const RunInfo&) {
  print_header(
      "E2: Figure 1 adversary vs plain ABD (paper: termination probability "
      "0, Appendix A.2)");
  print_rule();
  std::printf("%6s %6s %6s %6s %9s %8s %13s\n", "coin", "u1", "u2", "c",
              "looped?", "steps", "linearizable?");
  print_rule();

  std::vector<lin::History> r_histories;
  std::vector<std::unique_ptr<sim::World>> worlds;
  lin::PreambleMapping pi_abd;
  int wins = 0;
  for (const int coin : {0, 1}) {
    adversary::Figure1Run run = adversary::run_figure1(coin);
    const lin::History h = lin::History::from_world(*run.world);
    const lin::History hr = h.project_object(run.r_object_id);
    lin::RegisterSpec spec_r;
    lin::RegisterSpec spec_c{sim::Value(std::int64_t{-1})};
    const bool lin_ok =
        lin::check_linearizable(hr, spec_r).linearizable &&
        lin::check_linearizable(h.project_object(run.c_object_id), spec_c)
            .linearizable;
    std::printf("%6d %6s %6s %6s %9s %8d %13s\n", coin,
                sim::to_string(run.outcome.u1).c_str(),
                sim::to_string(run.outcome.u2).c_str(),
                sim::to_string(run.outcome.c).c_str(),
                run.outcome.looped() ? "yes" : "no",
                run.world->steps_executed(), lin_ok ? "yes" : "NO (!)");
    wins += run.outcome.looped() ? 1 : 0;
    r_histories.push_back(hr);
    pi_abd = run.r->preamble_mapping();
    worlds.push_back(std::move(run.world));
  }
  print_rule();
  std::printf("adversary win rate: %d/2  (paper: 2/2 — zero termination)\n",
              wins);

  lin::RegisterSpec spec;
  std::vector<lin::PrefixTree::TracedExecution> execs;
  for (std::size_t i = 0; i < r_histories.size(); ++i) {
    execs.push_back({&r_histories[i], &worlds[i]->trace()});
  }
  const auto strong = lin::check_prefix_tree(
      lin::PrefixTree::merge_traced(execs, lin::PreambleMapping::trivial()),
      spec);
  const auto tail = lin::check_prefix_tree(
      lin::PrefixTree::merge_traced(execs, pi_abd), spec);
  std::printf("branch pair, trivial preamble (strong linearizability): %s\n",
              strong.ok ? "consistent (?)" : "REFUTED — as the paper states");
  std::printf("branch pair, Pi_ABD (tail strong linearizability):      %s\n",
              tail.ok ? "holds — Theorem 5.1 confirmed on these executions"
                      : "violated (!)");

  // The Figure 1 adversary wins deterministically for both coin values:
  // bad-outcome probability 1 (termination probability 0, Appendix A.2).
  // Exhaustive over the coin space, so the value is exact, not sampled.
  set_exact_probability(report, "bad_probability", wins / 2.0);
  // k=1 leaves the Theorem 4.2 bound vacuous (bound = Prob[O] = 1): the
  // watchdog checks that the observed probability-1 loop does not EXCEED it.
  set_thm42_instance(report, /*k=*/1, /*r=*/1, /*n=*/3,
                     /*prob_lin=*/1.0, /*prob_atomic=*/0.5, wins / 2.0);
  report.set_metric_int("adversary_wins", wins);
  report.set_metric_int("coin_branches", 2);
  report.set_metric_bool("strong_linearizability_refuted", !strong.ok);
  report.set_metric_bool("tail_strong_holds", tail.ok);
  report.set_metric_int("steps_coin0", worlds[0]->steps_executed());
  report.set_metric_int("steps_coin1", worlds[1]->steps_executed());
  // Instrumented probe: the same weakener-over-ABD workload under a random
  // scheduler (the scripted Figure 1 worlds run with metrics off).
  merge_probe(report, run_instrumented_weakener(/*coin_seed=*/0,
                                                /*sched_seed=*/0, /*k=*/1)
                          .snapshot);
  return 0;
}

}  // namespace

Experiment make_figure1_adversary_experiment() {
  return {.name = "figure1_adversary",
          .description = "E2: Figure 1 adversary vs plain ABD, both coin "
                         "branches, (tail-)strong checks (finalize only)",
          .finalize = finalize};
}

}  // namespace blunt::exp
