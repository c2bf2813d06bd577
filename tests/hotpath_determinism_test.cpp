// Bit-identity of the simulation kernel across trace-detail levels and
// instrumentation.
//
// The zero-allocation scheduler refactor made `what` formatting and trace
// entry storage optional (sim::TraceDetail). The contract is that the
// *execution* — the enumerated event sequence the adversary sees, its
// choices, coin draws, step counts, and metrics — is bit-identical at every
// level; only the materialized trace text differs. These tests hold two
// workload families (the ABD^k weakener and the fault-injected chaos world)
// to golden fingerprints captured from the pre-refactor seed kernel, at
// both detail levels, with the deterministic profiler (sim::Config::profile)
// off and on. They also pin the fixed-seed step totals that perfbench's
// fidelity self-test checks (perfbench/sim_workloads.cpp), and check that a
// weakener at n = 10^4 completes within the step budget the builder scales
// with n.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/workloads.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "obs/prof.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Wraps an adversary and hashes every event it is offered *and* the choice
/// it makes, so a single uint64 witnesses the whole enumerated schedule.
struct HashingAdversary final : sim::Adversary {
  explicit HashingAdversary(sim::Adversary& inner) : inner_(inner) {}
  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& ev) override {
    const std::size_t c = inner_.choose(w, ev);
    const sim::Event& e = ev[c];
    mix(static_cast<std::uint64_t>(static_cast<int>(e.kind)));
    mix(static_cast<std::uint64_t>(e.pid) + 0x9e37);
    mix(static_cast<std::uint64_t>(e.source_id) + 0x79b9);
    mix(static_cast<std::uint64_t>(e.msg_id) + 0x7f4a);
    ++count_;
    return c;
  }
  void mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
  }
  sim::Adversary& inner_;
  std::uint64_t h_ = kFnvOffset;
  std::uint64_t count_ = 0;
};

/// Everything about a run that must not depend on the trace-detail level,
/// plus the trace fields that legitimately do (entries_n, trace_fnv).
struct Fingerprint {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  std::uint64_t events_hash = 0;
  std::uint64_t events_n = 0;
  int trace_size = 0;  // logical index count — level-independent by design
  std::size_t entries_n = 0;
  std::uint64_t trace_fnv = 0;
  std::map<std::string, std::int64_t> counters;
  std::int64_t profiled_steps = -1;  // the profiler's steps_executed, if on
};

void fill_instrumentation(Fingerprint& f, const sim::World& w) {
  f.trace_size = w.trace().size();
  f.entries_n = w.trace().entries().size();
  f.trace_fnv = fnv1a(w.trace().to_string());
  f.counters = w.metrics()->snapshot().counters;
  if (w.profiler() != nullptr) {
    f.profiled_steps =
        w.profiler()->snapshot().counter(obs::ProfCounter::kStepsExecuted);
  }
}

void expect_same_execution(const Fingerprint& a, const Fingerprint& b,
                           const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.events_hash, b.events_hash);
  EXPECT_EQ(a.events_n, b.events_n);
  EXPECT_EQ(a.trace_size, b.trace_size);
  EXPECT_EQ(a.counters, b.counters);
}

Fingerprint run_weakener(sim::TraceDetail d, int k, std::uint64_t coin_seed,
                         std::uint64_t sched_seed, bool profile = false) {
  adversary::McInstance inst = exp::make_abd_weakener(
      coin_seed, k, 3, /*metrics=*/true, d, profile);
  sim::UniformAdversary uni(sched_seed);
  HashingAdversary adv(uni);
  const sim::RunResult res = inst.world->run(adv);
  Fingerprint f;
  f.status = res.status;
  f.steps = res.steps;
  f.events_hash = adv.h_;
  f.events_n = adv.count_;
  fill_instrumentation(f, *inst.world);
  return f;
}

/// The chaos-soak world shape: fault plan from the seed, ABD register with
/// retransmission, every process writes pid+1 then reads, ChaosAdversary
/// over a uniform scheduler. Also checks linearizability of the outcome.
Fingerprint run_chaos(sim::TraceDetail d, std::uint64_t seed, int k,
                      bool* lin_ok, bool profile = false) {
  const fault::FaultPlan plan = fault::random_plan(
      fault::mix64(seed * 2 + static_cast<std::uint64_t>(k)), {});
  auto w = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = true,
                  .trace_detail = d,
                  .profile = profile},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg(
      "R", *w,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = 6});
  fault::FaultInjector injector(plan, *w);
  reg.set_fault_layer(&injector);
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    w->add_process(std::string("p").append(std::to_string(pid)),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 7 + 3);
  fault::ChaosAdversary chaos(uniform, injector.plan(), &injector);
  HashingAdversary adv(chaos);
  const sim::RunResult res = w->run(adv);
  lin::RegisterSpec spec;
  *lin_ok =
      lin::check_linearizable(lin::History::from_world(*w), spec).linearizable;
  Fingerprint f;
  f.status = res.status;
  f.steps = res.steps;
  f.events_hash = adv.h_;
  f.events_n = adv.count_;
  fill_instrumentation(f, *w);
  return f;
}

constexpr sim::TraceDetail kLevels[] = {sim::TraceDetail::kFull,
                                        sim::TraceDetail::kNone};

TEST(HotpathDeterminism, WeakenerBitIdenticalAcrossDetailLevels) {
  struct Case {
    int k;
    std::uint64_t coin, sched;
  };
  for (const Case& c : {Case{1, 1, 2}, Case{2, 3, 4}}) {
    const Fingerprint full =
        run_weakener(sim::TraceDetail::kFull, c.k, c.coin, c.sched);
    for (sim::TraceDetail d : kLevels) {
      const Fingerprint f = run_weakener(d, c.k, c.coin, c.sched);
      expect_same_execution(
          full, f, d == sim::TraceDetail::kFull ? "kFull" : "kNone");
      if (d == sim::TraceDetail::kNone) {
        // kNone stores no entries at all; the logical index count (what
        // call_pos/ret_pos are drawn from) is still advanced per step.
        EXPECT_EQ(f.entries_n, 0u);
      } else {
        EXPECT_EQ(static_cast<int>(f.entries_n), f.trace_size);
      }
    }
  }
}

TEST(HotpathDeterminism, WeakenerGoldenSeedKernelValues) {
  // Captured from the pre-refactor seed kernel (commit 653c731): run status,
  // step count, schedule hash, coin draws, trace numbering, and the full-
  // detail trace text. Any drift means the refactor changed an execution.
  const Fingerprint k1 = run_weakener(sim::TraceDetail::kFull, 1, 1, 2);
  EXPECT_EQ(k1.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(k1.steps, 99);
  EXPECT_EQ(k1.events_hash, 1078728116394031203ULL);
  EXPECT_EQ(k1.events_n, 99u);
  EXPECT_EQ(k1.trace_size, 177);
  EXPECT_EQ(k1.counters.at("sim.random_draws"), 1);
  EXPECT_EQ(k1.trace_fnv, 12620008167478596220ULL);

  const Fingerprint k2 = run_weakener(sim::TraceDetail::kFull, 2, 3, 4);
  EXPECT_EQ(k2.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(k2.steps, 153);
  EXPECT_EQ(k2.events_hash, 9939095538691649929ULL);
  EXPECT_EQ(k2.events_n, 153u);
  EXPECT_EQ(k2.trace_size, 261);
  EXPECT_EQ(k2.counters.at("sim.random_draws"), 7);
  EXPECT_EQ(k2.trace_fnv, 8370487428775426988ULL);
}

TEST(HotpathDeterminism, ChaosBitIdenticalAcrossDetailLevels) {
  struct Case {
    std::uint64_t seed;
    int k;
  };
  for (const Case& c : {Case{11, 1}, Case{21, 2}}) {
    bool lin_full = false;
    const Fingerprint full =
        run_chaos(sim::TraceDetail::kFull, c.seed, c.k, &lin_full);
    EXPECT_TRUE(lin_full);
    for (sim::TraceDetail d : kLevels) {
      bool lin = false;
      const Fingerprint f = run_chaos(d, c.seed, c.k, &lin);
      EXPECT_EQ(lin, lin_full);
      expect_same_execution(full, f, "chaos");
      if (d == sim::TraceDetail::kNone) {
        EXPECT_EQ(f.entries_n, 0u);
      }
    }
  }
}

TEST(HotpathDeterminism, ChaosGoldenSeedKernelValues) {
  bool lin = false;
  const Fingerprint c11 = run_chaos(sim::TraceDetail::kFull, 11, 1, &lin);
  EXPECT_TRUE(lin);
  EXPECT_EQ(c11.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(c11.steps, 210);
  EXPECT_EQ(c11.events_hash, 13942849437758618224ULL);
  EXPECT_EQ(c11.entries_n, 420u);
  EXPECT_EQ(c11.trace_fnv, 14724102845748350228ULL);

  const Fingerprint c21 = run_chaos(sim::TraceDetail::kFull, 21, 2, &lin);
  EXPECT_TRUE(lin);
  EXPECT_EQ(c21.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(c21.steps, 464);
  EXPECT_EQ(c21.events_hash, 12226323111211670161ULL);
  EXPECT_EQ(c21.entries_n, 894u);
  EXPECT_EQ(c21.trace_fnv, 16577753417419641436ULL);
}

/// Profiling is observational: at every trace level, the golden weakener
/// and chaos runs execute the same schedule (status, steps, schedule hash,
/// and every metrics counter, coin draws included) with the profiler on as
/// off, and the profiler counts every step.
TEST(HotpathDeterminism, ProfilingLeavesGoldenRunsUnchanged) {
  const auto expect_unperturbed = [](const Fingerprint& off,
                                     const Fingerprint& on, const char* run) {
    SCOPED_TRACE(run);
    expect_same_execution(off, on, "profile on vs off");
    EXPECT_EQ(on.entries_n, off.entries_n);
    EXPECT_EQ(on.trace_fnv, off.trace_fnv);
    EXPECT_EQ(off.profiled_steps, -1);
    EXPECT_EQ(on.profiled_steps, on.steps);
  };
  for (sim::TraceDetail d : kLevels) {
    SCOPED_TRACE(static_cast<int>(d));
    expect_unperturbed(run_weakener(d, 1, 1, 2),
                       run_weakener(d, 1, 1, 2, /*profile=*/true),
                       "weakener k=1");
    expect_unperturbed(run_weakener(d, 2, 3, 4),
                       run_weakener(d, 2, 3, 4, /*profile=*/true),
                       "weakener k=2");
    for (const auto& [seed, k] : {std::pair<std::uint64_t, int>{11, 1},
                                  std::pair<std::uint64_t, int>{21, 2}}) {
      bool lin_off = false;
      bool lin_on = false;
      const Fingerprint off = run_chaos(d, seed, k, &lin_off);
      const Fingerprint on = run_chaos(d, seed, k, &lin_on, /*profile=*/true);
      EXPECT_TRUE(lin_off);
      EXPECT_EQ(lin_on, lin_off);
      expect_unperturbed(off, on, "chaos");
    }
  }
}

/// Total steps of `runs` weakener-over-ABD^k runs at replication width n,
/// run i with coin seed 2i+1 and scheduler seed 2i+2, at kNone (the
/// Monte-Carlo trial configuration). Every run must complete.
std::int64_t fixed_seed_steps(int k, int n, int runs) {
  std::int64_t steps = 0;
  for (int i = 0; i < runs; ++i) {
    const auto coin = static_cast<std::uint64_t>(i) * 2 + 1;
    adversary::McInstance inst = exp::make_abd_weakener(
        coin, k, n, /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(coin + 1);
    const sim::RunResult res = inst.world->run(adv);
    EXPECT_EQ(res.status, sim::RunStatus::kCompleted)
        << "k=" << k << " n=" << n << " coin seed " << coin;
    steps += res.steps;
  }
  return steps;
}

/// The exact work perfbench's fidelity self-test mirrors (mc_paper's
/// steps_total_k1/k2, wide_n's throughput_n1000.steps): a change to any
/// schedule moves these totals.
TEST(HotpathDeterminism, FixedSeedStepTotalsArePinned) {
  EXPECT_EQ(fixed_seed_steps(/*k=*/1, /*n=*/3, /*runs=*/3000), 297292);
  EXPECT_EQ(fixed_seed_steps(/*k=*/2, /*n=*/3, /*runs=*/1500), 229722);
  EXPECT_EQ(fixed_seed_steps(/*k=*/2, /*n=*/1000, /*runs=*/2), 73317);
}

TEST(WideWeakener, TenThousandReplicasComplete) {
  // About 366k steps: more than the default step budget, which the builder
  // scales with n.
  adversary::McInstance inst = exp::make_abd_weakener(
      /*coin_seed=*/1, /*k=*/2, /*num_processes=*/10000, /*metrics=*/false,
      sim::TraceDetail::kNone);
  sim::UniformAdversary adv(2);
  const sim::RunResult res = inst.world->run(adv);
  EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  EXPECT_GT(res.steps, sim::Config{}.max_steps);
}

}  // namespace
}  // namespace blunt
