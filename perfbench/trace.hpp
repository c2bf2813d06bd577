// Spans recorded from outside the library, around calls into its public
// API. Step-level spans (enabled scan, adversary choice, resume, delivery)
// are aggregated per trial as (total ns, calls) so a traced trial keeps a
// fixed-size record in memory until the run writes them all at the end.
//
// Span tree of one simulator trial (root id = trial index):
//
//   trial
//   ├── fault.plan            random_plan + validate (chaos_lin)
//   ├── sim.world_build       World, registers, fault layer, processes
//   ├── sim.run               the step loop below
//   │   ├── sim.enabled_scan  World::enabled_events
//   │   ├── adversary.choose  Adversary::choose
//   │   ├── sim.execute_resume  World::execute of a resume
//   │   └── net.deliver       World::execute of a delivery
//   ├── lin.history           History::from_world
//   ├── lin.check             check_linearizable
//   └── lin.chain             check_prefix_chain
//
// exact_game records one game.solve span per solve under its root.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/world.hpp"

namespace perfbench {

namespace sim = blunt::sim;

enum class Span : int {
  kTrial,
  kFaultPlan,
  kWorldBuild,
  kRun,
  kEnabledScan,
  kChoose,
  kExecuteResume,
  kDeliver,
  kLinHistory,
  kLinCheck,
  kLinChain,
  kGameSolve,
  kCount,
};

inline constexpr std::array<const char*, static_cast<int>(Span::kCount)>
    kSpanNames = {"trial",          "fault.plan",     "sim.world_build",
                  "sim.run",        "sim.enabled_scan", "adversary.choose",
                  "sim.execute_resume", "net.deliver", "lin.history",
                  "lin.check",      "lin.chain",      "game.solve"};

/// Parent of each span in the tree above.
inline constexpr std::array<Span, static_cast<int>(Span::kCount)> kSpanParent =
    {Span::kTrial, Span::kTrial, Span::kTrial, Span::kTrial, Span::kRun,
     Span::kRun,   Span::kRun,   Span::kRun,   Span::kTrial, Span::kTrial,
     Span::kTrial, Span::kTrial};

struct SpanAgg {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
};

/// One root span and its aggregated descendants.
struct TrialTrace {
  std::int64_t id = -1;
  std::array<SpanAgg, static_cast<int>(Span::kCount)> spans{};
  /// Exact work counts observed at the same boundaries.
  std::int64_t steps = 0;
  std::int64_t events_offered = 0;  // sum of enabled-list lengths
  std::int64_t ops = 0;             // operations in the history

  SpanAgg& operator[](Span s) { return spans[static_cast<int>(s)]; }
  const SpanAgg& operator[](Span s) const {
    return spans[static_cast<int>(s)];
  }
  /// Self time: the span's duration minus what its child spans cover.
  [[nodiscard]] std::int64_t self_ns(Span s) const;
};

/// Times `f` into `trace[s]` when tracing, else just calls it.
template <class F>
decltype(auto) span(TrialTrace* trace, Span s, F&& f) {
  if (trace == nullptr) return f();
  struct Stop {
    SpanAgg& agg;
    std::int64_t t0;
    ~Stop() {
      agg.ns += now_ns() - t0;
      ++agg.calls;
    }
  } stop{(*trace)[s], now_ns()};
  return f();
}

/// World::run's loop (finished -> enabled_events -> choose -> execute),
/// driven from outside with each call timed. Written against `auto` so a
/// different enabled-list type compiles unchanged. Three clock reads per
/// step: the end of one step's execute is the start of the next scan.
sim::RunResult traced_run(sim::World& w, sim::Adversary& adv,
                          TrialTrace& trace);

/// Sums per-trial aggregates into one record (id = -1).
TrialTrace total(const std::vector<TrialTrace>& traces);

/// Writes every span of every trace as one JSON line:
/// {"trial":id,"span":name,"parent":name,"ns":..,"self_ns":..,"calls":..}
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<TrialTrace>& traces);

}  // namespace perfbench
