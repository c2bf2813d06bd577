// E1 (Appendix A.1): the weakener over ATOMIC registers.
//
// Reproduces: "p2 terminates with probability at least one-half, for any
// adversary" — and exactly one-half against the optimal strong adversary.
// Three independent computations agree:
//   1. the exact game solver over the atomic-weakener game,
//   2. the exhaustive schedule/coin explorer on the real simulator,
//   3. (as a weak-adversary contrast) best-of-N random schedulers.
#include <chrono>
#include <cstdio>

#include "adversary/explorer.hpp"
#include "adversary/mc_search.hpp"
#include "exp/workloads.hpp"
#include "game/solver.hpp"
#include "game/weakener_game.hpp"
#include "objects/atomic.hpp"

namespace blunt::exp {
namespace {

/// Installs the weakener over two atomic registers into `inst`'s world. The
/// explorer's Instance and the MC search's McInstance share this builder.
template <typename Instance>
Instance with_atomic_weakener(Instance inst) {
  auto r = std::make_shared<objects::AtomicRegister>("R", *inst.world,
                                                     sim::Value{});
  auto c = std::make_shared<objects::AtomicRegister>(
      "C", *inst.world, sim::Value(std::int64_t{-1}));
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*inst.world, *r, *c, *out);
  inst.bad = [out] { return out->looped(); };
  inst.owned = {r, c, out};
  return inst;
}

/// Monte-Carlo/probe builder; `metrics` flips on the world's observability
/// registry for the instrumented probe run the report carries.
adversary::McInstance atomic_weakener_mc(std::uint64_t coin_seed,
                                         bool metrics = false) {
  adversary::McInstance inst;
  inst.world = std::make_unique<sim::World>(
      sim::Config{.metrics = metrics},
      std::make_unique<sim::SeededCoin>(coin_seed));
  return with_atomic_weakener(std::move(inst));
}

int finalize(obs::BenchReport& report, const Accumulator&, const RunInfo&) {
  print_header(
      "E1: weakener over atomic registers (paper: termination >= 1/2, "
      "Appendix A.1)");

  const auto t0 = std::chrono::steady_clock::now();
  game::SolveStats stats;
  const Rational game_value = game::solve(game::AtomicWeakenerGame{}, &stats);
  const double game_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto t1 = std::chrono::steady_clock::now();
  const adversary::ExplorerResult ex =
      adversary::explore([](std::vector<int> coins) {
        return with_atomic_weakener(adversary::make_instance(std::move(coins)));
      });
  const double ex_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  obs::MetricsRegistry mc_metrics;
  const adversary::McSearchResult mc = adversary::search_random_adversaries(
      [](std::uint64_t coin_seed) { return atomic_weakener_mc(coin_seed); },
      /*scheduler_seeds=*/20, /*trials_per_seed=*/200, &mc_metrics);

  print_rule();
  std::printf("%-44s %12s %14s\n", "method", "Prob[bad]", "termination");
  print_rule();
  std::printf("%-44s %12s %14s   (%zu states, %.3fs)\n",
              "exact game solver (optimal strong adversary)",
              game_value.to_string().c_str(),
              (Rational(1) - game_value).to_string().c_str(),
              stats.states_visited, game_secs);
  std::printf("%-44s %12s %14s   (%ld executions, %.3fs)\n",
              "exhaustive explorer on the simulator",
              ex.value.to_string().c_str(),
              (Rational(1) - ex.value).to_string().c_str(), ex.executions,
              ex_secs);
  std::printf("%-44s %12.4f %14.4f   (pooled %lld trials)\n",
              "best-of-20 random schedulers (weak baseline)", mc.best_rate,
              1.0 - mc.best_rate,
              static_cast<long long>(mc.pooled.trials()));
  print_rule();
  std::printf("paper: Prob[bad] = 1/2 exactly; both exact methods %s\n",
              (game_value == Rational(1, 2) && ex.value == Rational(1, 2))
                  ? "REPRODUCE it"
                  : "DISAGREE (!)");

  set_exact_probability(report, "bad_probability", game_value.to_double());
  report.set_metric_string("bad_probability_exact", game_value.to_string());
  report.set_metric("termination_probability",
                    (Rational(1) - game_value).to_double());
  set_exact_probability(report, "bad_probability_explorer",
                        ex.value.to_double());
  set_bernoulli_metric(report, "bad_probability_mc_pooled", mc.pooled);
  report.set_metric("bad_probability_mc_best_seed", mc.best_rate);
  report.set_metric_int("explorer_executions", ex.executions);
  report.set_metric_int("game_states_visited",
                        static_cast<std::int64_t>(stats.states_visited));
  report.set_metric_bool("reproduces_paper",
                         game_value == Rational(1, 2) &&
                             ex.value == Rational(1, 2));
  report.add_timing_ms("game_solve", game_secs * 1000.0);
  report.add_timing_ms("explorer", ex_secs * 1000.0);
  report.set_environment_int("mc_scheduler_seeds", 20);
  report.set_environment_int("mc_trials_per_seed", 200);
  // Registry: the MC search counters plus one instrumented atomic-weakener
  // run (step kinds, invocation latencies; atomic registers send nothing,
  // so the net.* counters stay zero by construction).
  report.merge_registry(mc_metrics.snapshot());
  adversary::McInstance probe = atomic_weakener_mc(/*coin_seed=*/1,
                                                   /*metrics=*/true);
  sim::UniformAdversary probe_adv(1);
  (void)probe.world->run(probe_adv);
  merge_probe(report, probe.world->metrics()->snapshot());
  return 0;
}

}  // namespace

Experiment make_atomic_baseline_experiment() {
  return {.name = "atomic_baseline",
          .description = "E1: exact game, explorer and random schedulers on "
                         "the weakener over atomic registers (finalize only)",
          .finalize = finalize};
}

}  // namespace blunt::exp
