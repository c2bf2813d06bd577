// exact_game: the exact max-expectation solves of Appendix A.3, ABD^1 and
// ABD^2 on the phase-level game, serially. It touches no simulator code and
// its input does not depend on the seed.
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rational.hpp"
#include "game/abd_phase_game.hpp"
#include "game/solver.hpp"
#include "game/weakener_game.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace game = blunt::game;
using blunt::Rational;

struct Known {
  int k;
  Rational value;
  std::size_t states;
};

// Appendix A.3: ABD^1 = 1 (Figure 1 forces the loop), ABD^2 = 5/8.
const Known kKnown[] = {{1, Rational(1), 155311}, {2, Rational(5, 8), 598306}};

struct Solved {
  std::int64_t wall_ns = 0;
  game::SolveStats stats;
};

/// One pass: both games, each checked against its known value and state
/// count.
std::vector<Solved> solve_pass(
    const std::vector<game::AbdPhaseWeakenerGame>& games, Result& r,
    TrialTrace* trace) {
  std::vector<Solved> out;
  for (std::size_t i = 0; i < games.size(); ++i) {
    Solved s;
    const std::int64_t t0 = now_ns();
    const Rational v = span(trace, Span::kGameSolve,
                            [&] { return game::solve(games[i], &s.stats); });
    s.wall_ns = now_ns() - t0;
    const Known& want = kKnown[i];
    const auto where = [&] { return "game ABD^" + std::to_string(want.k); };
    r.check(v == want.value, where,
            "value " + v.to_string() + ", expected " + want.value.to_string());
    r.check(s.stats.states_visited == want.states, where,
            std::to_string(s.stats.states_visited) + " states, expected " +
                std::to_string(want.states));
    out.push_back(s);
  }
  return out;
}

}  // namespace

void run_exact_game(const Options& o, Result& r) {
  // Set-up builds the models and warms the solver on the small atomic
  // weakener game; the measured solves start from the same empty memo.
  auto [games, setup_s] = timed_setup(
      5,
      [] {
        std::vector<game::AbdPhaseWeakenerGame> g;
        for (const Known& k : kKnown) g.emplace_back(k.k);
        (void)game::solve(game::AtomicRoundsWeakenerGame(2));
        return g;
      },
      r);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);

  if (!o.trace) {
    std::vector<double> pass_s;
    std::vector<std::vector<double>> solve_s(games.size());
    do {
      const std::int64_t t0 = now_ns();
      const std::vector<Solved> pass = solve_pass(games, r, nullptr);
      pass_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      for (std::size_t i = 0; i < pass.size(); ++i) {
        solve_s[i].push_back(static_cast<double>(pass[i].wall_ns) / 1e9);
      }
    } while (now_ns() + static_cast<std::int64_t>(pass_s.back() * 1e9) <=
             deadline);
    std::vector<double> rate;
    for (const double s : pass_s) rate.push_back(1.0 / s);
    // A trial is one pass: the exact value of both games.
    r.metric("trials_per_s", median(rate), "trials/s");
    r.metric("trial_us_p50", quantile(pass_s, 0.50) * 1e6, "us");
    r.metric("trial_us_p99", quantile(pass_s, 0.99) * 1e6, "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb",
             static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
             "MiB");
    for (std::size_t i = 0; i < games.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "solve_s ABD^%d %.4f s (median of %zu)",
                    kKnown[i].k, median(solve_s[i]), solve_s[i].size());
      r.info(buf);
    }
    return;
  }

  // Traced: the first pass is traced, so the RSS it adds is the memo's.
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<TrialTrace> traces;
  LayerMetrics lm;
  std::int64_t solve_ns = 0;
  do {
    TrialTrace t;
    t.id = static_cast<std::int64_t>(traces.size());
    const std::int64_t rss0 = current_rss_bytes();
    std::int64_t t0 = now_ns();
    const std::vector<Solved> pass = solve_pass(games, r, &t);
    t[Span::kTrial] = {now_ns() - t0, 1};
    traced.push_back(static_cast<double>(t[Span::kTrial].ns));
    if (traces.empty()) {
      std::size_t most = 0;
      for (const Solved& s : pass) {
        lm.game_states += static_cast<double>(s.stats.states_visited);
        lm.game_expansions += static_cast<double>(s.stats.expansions);
        lm.game_max_depth =
            std::max(lm.game_max_depth, static_cast<double>(s.stats.max_depth));
        most = std::max(most, s.stats.states_visited);
        solve_ns += s.wall_ns;
      }
      lm.game_bytes_per_state =
          static_cast<double>(peak_rss_bytes() - rss0) /
          static_cast<double>(most);
    }
    traces.push_back(t);
    t0 = now_ns();
    (void)solve_pass(games, r, nullptr);
    untraced.push_back(static_cast<double>(now_ns() - t0));
  } while (now_ns() + static_cast<std::int64_t>(traced.back() +
                                                untraced.back()) <=
           deadline);
  lm.game_states_per_s = lm.game_states / (static_cast<double>(solve_ns) / 1e9);
  lm.trace_overhead = (median(traced) - median(untraced)) / median(untraced);
  lm.clock_ns = clock_read_ns();
  lm.emit(r);
  r.info("exact states " + std::to_string(static_cast<long long>(
                               lm.game_states)) +
         ", expansions " +
         std::to_string(static_cast<long long>(lm.game_expansions)));
  if (!o.spans_path.empty()) write_spans(o.spans_path, "exact_game", traces);
}

}  // namespace perfbench
