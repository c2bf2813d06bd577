// E7 (Theorem 4.1): O^k is equivalent to O — operationally, every execution
// of every transformed object is linearizable w.r.t. the same sequential
// specification.
//
// Soak: for each object in the catalogue (ABD multi-/single-writer, Afek
// snapshot, Vitanyi–Awerbuch, Israeli–Li) and k in {1, 2, 3}, run many
// adversarially-scheduled concurrent workloads and check every history with
// the Wing–Gong checker. The table reports runs checked and violations
// found (expected: zero everywhere).
//
// Engine port: trial index i encodes (object o, preamble k, seed) as
// o = i/450, k = (i%450)/150 + 1, seed = i%150 — each cell keeps the exact
// per-seed worlds of the pre-port serial bench, so the linearizable counts
// are identical; only the execution order (and now the thread) differs, and
// the per-cell tallies are permutation-invariant integer sums.
#include <cstdio>
#include <functional>

#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "lin/spec.hpp"
#include "objects/israeli_li.hpp"
#include "objects/snapshot.hpp"
#include "objects/vitanyi.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

constexpr int kRunsPerCell = 150;
constexpr int kKs = 3;
constexpr std::int64_t kTrialsPerObject = kKs * kRunsPerCell;

using Soak = std::function<bool(std::uint64_t seed, int k)>;  // true = lin ok

bool abd_mw(std::uint64_t seed, int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg("R", *w,
                           {.num_processes = 3, .preamble_iterations = k});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg.read(p);
                     co_await reg.write(p, sim::Value(std::int64_t{pid + 10}));
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary adv(seed * 7 + 3);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::RegisterSpec spec;
  return certified_linearizable(*w, spec);
}

bool abd_sw(std::uint64_t seed, int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg("R", *w,
                           {.num_processes = 3,
                            .preamble_iterations = k,
                            .variant = objects::AbdVariant::kSingleWriter,
                            .single_writer = 0});
  w->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
    co_await reg.write(p, sim::Value(std::int64_t{2}));
  });
  for (Pid pid = 1; pid < 3; ++pid) {
    w->add_process("r" + std::to_string(pid),
                   [&reg](sim::Proc p) -> sim::Task<void> {
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary adv(seed * 11 + 1);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::RegisterSpec spec;
  return certified_linearizable(*w, spec);
}

bool snapshot(std::uint64_t seed, int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AfekSnapshot snap("S", *w,
                             {.num_processes = 3, .preamble_iterations = k});
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("u" + std::to_string(pid),
                   [&snap, pid](sim::Proc p) -> sim::Task<void> {
                     co_await snap.update(p, pid * 10 + 1);
                     co_await snap.update(p, pid * 10 + 2);
                   });
  }
  w->add_process("s", [&snap](sim::Proc p) -> sim::Task<void> {
    (void)co_await snap.scan(p);
    (void)co_await snap.scan(p);
  });
  sim::UniformAdversary adv(seed * 13 + 5);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::SnapshotSpec spec(3);
  return certified_linearizable(*w, spec);
}

bool vitanyi(std::uint64_t seed, int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::VitanyiRegister reg("R", *w,
                               {.num_processes = 3,
                                .preamble_iterations = k});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary adv(seed * 17 + 7);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::RegisterSpec spec;
  return certified_linearizable(*w, spec);
}

bool israeli_li(std::uint64_t seed, int k) {
  auto w = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::IsraeliLiRegister reg(
      "R", *w,
      {.num_readers = 2, .writer = 2, .preamble_iterations = k});
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("r" + std::to_string(pid),
                   [&reg](sim::Proc p) -> sim::Task<void> {
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  w->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
    co_await reg.write(p, sim::Value(std::int64_t{2}));
  });
  sim::UniformAdversary adv(seed * 19 + 9);
  if (w->run(adv).status != sim::RunStatus::kCompleted) return false;
  lin::RegisterSpec spec;
  return certified_linearizable(*w, spec);
}

struct Row {
  const char* name;
  Soak fn;
};

const Row* rows() {
  static const Row r[] = {
      {"ABD multi-writer [20]", abd_mw},
      {"ABD single-writer [3]", abd_sw},
      {"Afek et al. snapshot [1]", snapshot},
      {"Vitanyi-Awerbuch MWMR [22]", vitanyi},
      {"Israeli-Li multi-reader [19]", israeli_li},
  };
  return r;
}
constexpr int kNumObjects = 5;

std::string cell_key(int obj, int k) {
  return "o" + std::to_string(obj) + "_k" + std::to_string(k);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const int obj = static_cast<int>(ctx.trial_index / kTrialsPerObject);
  const int k =
      static_cast<int>((ctx.trial_index % kTrialsPerObject) / kRunsPerCell) +
      1;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(ctx.trial_index % kRunsPerCell);
  // The soak worlds deliberately run with metrics OFF: this bench doubles as
  // the observability-overhead regression gate (the disabled-path cost must
  // stay in the noise). The report carries one instrumented probe instead.
  acc.tally(cell_key(obj, k)).add(rows()[obj].fn(seed, k));
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& /*info*/) {
  print_header(
      "E7: Theorem 4.1 equivalence soak — every O^k history linearizable");
  print_rule();
  std::printf("%-30s %8s %12s %12s %12s\n", "object", "runs/k", "k=1 ok",
              "k=2 ok", "k=3 ok");
  print_rule();
  bool all_ok = true;
  int total_runs = 0;
  int total_violations = 0;
  obs::JsonArray soak_rows;
  for (int obj = 0; obj < kNumObjects; ++obj) {
    int ok[kKs + 1] = {};
    for (int k = 1; k <= kKs; ++k) {
      const BernoulliEstimator& cell = acc.tally(cell_key(obj, k));
      ok[k] = static_cast<int>(cell.successes());
      total_runs += static_cast<int>(cell.trials());
      total_violations += static_cast<int>(cell.trials() - cell.successes());
      all_ok = all_ok && cell.successes() == cell.trials() &&
               cell.trials() == kRunsPerCell;
    }
    std::printf("%-30s %8d %12d %12d %12d\n", rows()[obj].name, kRunsPerCell,
                ok[1], ok[2], ok[3]);
    obs::JsonObject jrow;
    jrow["object"] = obs::Json(std::string(rows()[obj].name));
    jrow["runs_per_k"] = obs::Json(kRunsPerCell);
    jrow["k1_linearizable"] = obs::Json(ok[1]);
    jrow["k2_linearizable"] = obs::Json(ok[2]);
    jrow["k3_linearizable"] = obs::Json(ok[3]);
    soak_rows.emplace_back(std::move(jrow));
  }
  print_rule();
  std::printf("verdict: %s\n",
              all_ok ? "0 violations — Theorem 4.1 holds on every soak"
                     : "VIOLATIONS FOUND (!)");

  // Bad outcome here = a linearizability violation; Theorem 4.1 says zero.
  set_bernoulli_metric(report, "bad_probability", total_violations,
                       total_runs);
  report.set_metric_int("total_runs", total_runs);
  report.set_metric_int("violations", total_violations);
  report.set_metric_bool("theorem41_holds", all_ok);
  report.set_metric_json("soak", obs::Json(std::move(soak_rows)));
  report.set_environment_int("runs_per_cell", kRunsPerCell);
  merge_probe(report,
              run_instrumented_weakener(/*coin_seed=*/0, /*sched_seed=*/0,
                                        /*k=*/2)
                  .snapshot);
  return 0;
}

}  // namespace

Experiment make_equivalence_soak_experiment() {
  Experiment e;
  e.name = "equivalence_soak";
  e.description =
      "Theorem 4.1 soak: 5 objects x k in {1,2,3} x 150 seeds, every history "
      "Wing-Gong checked (structured trial space; --trials ignored)";
  e.default_trials = kNumObjects * kTrialsPerObject;
  e.default_seed = 0;
  // Worlds are seeded by the decoded per-cell seed (0..149), exactly as the
  // pre-port serial bench seeded them.
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = [](std::int64_t) {
    return static_cast<std::int64_t>(kNumObjects * kTrialsPerObject);
  };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
