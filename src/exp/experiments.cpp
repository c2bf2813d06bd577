#include "exp/experiment.hpp"

namespace blunt::exp {

// Factories defined in the exp_*.cpp files.
Experiment make_theorem42_bound_experiment();
Experiment make_abd_k_sweep_experiment();
Experiment make_chaos_soak_experiment();
Experiment make_equivalence_soak_experiment();
Experiment make_snapshot_blunting_experiment();
Experiment make_scaling_probe_experiment();
Experiment make_n_sweep_experiment();
Experiment make_atomic_baseline_experiment();
Experiment make_figure1_adversary_experiment();
Experiment make_abd2_exact_game_experiment();
Experiment make_k_tradeoff_experiment();
Experiment make_vitanyi_il_blunting_experiment();
Experiment make_consensus_experiment();

void register_builtin_experiments() {
  static const bool once = [] {
    register_experiment(make_theorem42_bound_experiment());
    register_experiment(make_abd_k_sweep_experiment());
    register_experiment(make_chaos_soak_experiment());
    register_experiment(make_equivalence_soak_experiment());
    register_experiment(make_snapshot_blunting_experiment());
    register_experiment(make_scaling_probe_experiment());
    register_experiment(make_n_sweep_experiment());
    register_experiment(make_atomic_baseline_experiment());
    register_experiment(make_figure1_adversary_experiment());
    register_experiment(make_abd2_exact_game_experiment());
    register_experiment(make_k_tradeoff_experiment());
    register_experiment(make_vitanyi_il_blunting_experiment());
    register_experiment(make_consensus_experiment());
    return true;
  }();
  (void)once;
}

}  // namespace blunt::exp
