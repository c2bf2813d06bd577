// Bit-identity of the simulation kernel across trace-detail levels.
//
// The zero-allocation scheduler refactor made `what` formatting and trace
// entry storage optional (sim::TraceDetail). The contract is that the
// *execution* — the enumerated event sequence the adversary sees, its
// choices, coin draws, step counts, and metrics — is bit-identical at every
// level; only the materialized trace text differs. These tests hold two
// workload families (the ABD^k weakener and the fault-injected chaos world)
// to golden fingerprints captured from the pre-refactor seed kernel, at all
// three detail levels.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/workloads.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
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
};

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
                         std::uint64_t sched_seed) {
  adversary::McInstance inst =
      exp::make_abd_weakener(coin_seed, k, 3, /*metrics=*/true, d);
  sim::UniformAdversary uni(sched_seed);
  HashingAdversary adv(uni);
  const sim::RunResult res = inst.world->run(adv);
  Fingerprint f;
  f.status = res.status;
  f.steps = res.steps;
  f.events_hash = adv.h_;
  f.events_n = adv.count_;
  f.trace_size = inst.world->trace().size();
  f.entries_n = inst.world->trace().entries().size();
  f.trace_fnv = fnv1a(inst.world->trace().to_string());
  f.counters = inst.world->metrics()->snapshot().counters;
  return f;
}

/// The chaos-soak world shape: fault plan from the seed, ABD register with
/// retransmission, every process writes pid+1 then reads, ChaosAdversary
/// over a uniform scheduler. Also checks linearizability of the outcome.
Fingerprint run_chaos(sim::TraceDetail d, std::uint64_t seed, int k,
                      bool* lin_ok) {
  const fault::FaultPlan plan = fault::random_plan(
      fault::mix64(seed * 2 + static_cast<std::uint64_t>(k)), {});
  auto w = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = true,
                  .trace_detail = d},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg(
      "R", *w,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = 6});
  fault::FaultInjector injector(plan, *w);
  reg.set_fault_layer(&injector);
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    w->add_process("p" + std::to_string(pid),
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
  f.trace_size = w->trace().size();
  f.entries_n = w->trace().entries().size();
  f.trace_fnv = fnv1a(w->trace().to_string());
  f.counters = w->metrics()->snapshot().counters;
  return f;
}

constexpr sim::TraceDetail kLevels[] = {
    sim::TraceDetail::kFull, sim::TraceDetail::kKinds, sim::TraceDetail::kNone};

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
      expect_same_execution(full, f, d == sim::TraceDetail::kFull
                                          ? "kFull"
                                          : d == sim::TraceDetail::kKinds
                                                ? "kKinds"
                                                : "kNone");
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

}  // namespace
}  // namespace blunt
