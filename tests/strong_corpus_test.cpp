// The prefix-tree (tail-)strong linearizability checker (lin/strong.hpp) on
// seeded chaos runs of the real objects.
//
// StrongCorpus pins the checker's verdicts: how many Π_ABD and Π0 chains of a
// fixed chaos-ABD corpus pass, and the failing_node of every one that fails.
// The corpus mixes correct ABD^1/ABD^2 runs, runs of the planted
// sub-majority-quorum bug, and copies of each history with one read result
// changed, so it holds passing chains, failing chains and failures at many
// depths. A rewrite of the checker must reproduce every number.
//
// StrongCertificate re-checks the checker's "yes" with code it does not
// share: every node's linearization must pass lin::validate_linearization
// against that node's history, and every child's must start with its
// parent's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/figure1.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/spec.hpp"
#include "lin/strong.hpp"
#include "objects/abd.hpp"
#include "objects/israeli_li.hpp"
#include "objects/vitanyi.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt {
namespace {

constexpr int kMaxRetransmits = 12;

struct ChaosAbd {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> reg;
  std::unique_ptr<fault::FaultInjector> injector;
  bool completed = false;
};

/// One seeded chaos run over ABD^k at n = 3: each process writes pid + 1,
/// reads, and reads again, under a random quorum-preserving fault plan.
ChaosAbd run_chaos_abd(std::uint64_t seed, int k, objects::AbdBug bug) {
  const fault::FaultPlan plan = fault::random_plan(fault::mix64(seed * 2 + 31));
  ChaosAbd c;
  c.world = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  c.reg = std::make_unique<objects::AbdRegister>(
      "R", *c.world,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = kMaxRetransmits,
                                    .bug = bug});
  c.injector = std::make_unique<fault::FaultInjector>(plan, *c.world);
  c.reg->set_fault_layer(c.injector.get());
  objects::AbdRegister& reg = *c.reg;
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    c.world->add_process(std::string("p").append(std::to_string(pid)),
                         [&reg, pid](sim::Proc p) -> sim::Task<void> {
                           co_await reg.write(
                               p, sim::Value(std::int64_t{pid + 1}));
                           (void)co_await reg.read(p);
                           (void)co_await reg.read(p);
                         });
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 7 + 3);
  fault::ChaosAdversary adv(uniform, c.injector->plan(), c.injector.get());
  c.completed = c.world->run(adv).status == sim::RunStatus::kCompleted;
  return c;
}

/// `h` with one returned read's result changed to another written value
/// (⊥ becomes 1, v becomes v mod 3 + 1); which read is picked depends on
/// `seed`. Returns `h` unchanged when no read returned.
lin::History with_one_read_changed(const lin::History& h, std::uint64_t seed) {
  std::vector<lin::Operation> ops = h.ops();
  std::vector<std::size_t> reads;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].method == "Read" && !ops[i].pending()) reads.push_back(i);
  }
  if (reads.empty()) return h;
  lin::Operation& op = ops[reads[seed % reads.size()]];
  const auto* v = std::get_if<std::int64_t>(&*op.result);
  op.result = sim::Value(std::int64_t{v == nullptr ? 1 : *v % 3 + 1});
  return lin::History(std::move(ops));
}

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(StrongCorpus, PinnedVerdictsOnSeededChaosAbd) {
  // 600 runs: ABD^1 and ABD^2 alternate, every third run has the planted
  // sub-majority quorum. Each completed run's history is chain-checked as
  // recorded and with one read changed, under Π_ABD and under Π0: four
  // buckets, (recorded, Π_ABD), (recorded, Π0), (changed, Π_ABD),
  // (changed, Π0).
  constexpr int kRuns = 600;
  const lin::RegisterSpec spec;
  const lin::PreambleMapping pi0 = lin::PreambleMapping::trivial();
  int completed = 0;
  int checks = 0;
  int passes[4] = {0, 0, 0, 0};
  std::int64_t failing_sum[4] = {0, 0, 0, 0};
  std::uint64_t digest = 1469598103934665603ULL;
  for (int i = 0; i < kRuns; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const objects::AbdBug bug = i % 3 == 2 ? objects::AbdBug::kSubMajorityQuorum
                                           : objects::AbdBug::kNone;
    const ChaosAbd run = run_chaos_abd(seed, 1 + i % 2, bug);
    if (!run.completed) continue;
    ++completed;
    const lin::History recorded = lin::History::from_world(*run.world);
    const lin::History changed = with_one_read_changed(recorded, seed);
    const lin::PreambleMapping pi_abd = run.reg->preamble_mapping();
    const lin::History* histories[2] = {&recorded, &changed};
    const lin::PreambleMapping* mappings[2] = {&pi_abd, &pi0};
    for (int b = 0; b < 4; ++b) {
      const lin::StrongCheckResult r =
          lin::check_prefix_chain(*histories[b / 2], spec, *mappings[b % 2]);
      ++checks;
      EXPECT_EQ(r.ok, r.failing_node < 0) << "run " << i << " bucket " << b;
      if (r.ok) {
        ++passes[b];
      } else {
        failing_sum[b] += r.failing_node;
      }
      digest = fnv1a(digest, i * 4 + b);
      digest = fnv1a(digest, r.ok ? -1 : r.failing_node);
    }
  }
  // Pinned from the checker as it stood before its bitmask rewrite.
  EXPECT_EQ(completed, 600);
  EXPECT_EQ(checks, 2400);
  EXPECT_EQ(passes[0], 590);
  EXPECT_EQ(passes[1], 590);
  EXPECT_EQ(passes[2], 134);
  EXPECT_EQ(passes[3], 122);
  EXPECT_EQ(failing_sum[0], 34);
  EXPECT_EQ(failing_sum[1], 194);
  EXPECT_EQ(failing_sum[2], 1837);
  EXPECT_EQ(failing_sum[3], 11112);
  EXPECT_EQ(digest, 0xb44cb91964948c98ULL)
      << std::hex << "digest 0x" << digest;
}

/// A finished seeded run of a shared-memory register under a crash-only
/// chaos plan, as chaos_soak runs them: Vitányi–Awerbuch (each of three
/// processes writes, then reads twice) or Israeli–Li (two readers read
/// twice, the writer writes 1 then 2).
struct SharedMemRun {
  std::unique_ptr<sim::World> world;
  std::shared_ptr<void> reg;
  lin::PreambleMapping pi;
  bool completed = false;
};

SharedMemRun run_chaos_shared_mem(std::uint64_t seed, bool israeli_li) {
  fault::PlanOptions opts;
  opts.max_loss_permille = 0;
  opts.max_dup_permille = 0;
  opts.max_partitions = 0;
  const fault::FaultPlan plan =
      fault::random_plan(fault::mix64(seed * 2 + 5), opts);
  SharedMemRun r;
  r.world = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  sim::World& w = *r.world;
  if (israeli_li) {
    auto reg = std::make_shared<objects::IsraeliLiRegister>(
        "R", w,
        objects::IsraeliLiRegister::Options{
            .num_readers = 2, .writer = 2, .preamble_iterations = 2});
    for (Pid pid = 0; pid < 2; ++pid) {
      w.add_process(std::string("r").append(std::to_string(pid)),
                    [reg](sim::Proc p) -> sim::Task<void> {
                      (void)co_await reg->read(p);
                      (void)co_await reg->read(p);
                    });
    }
    w.add_process("w", [reg](sim::Proc p) -> sim::Task<void> {
      co_await reg->write(p, sim::Value(std::int64_t{1}));
      co_await reg->write(p, sim::Value(std::int64_t{2}));
    });
    r.pi = reg->preamble_mapping();
    r.reg = reg;
  } else {
    auto reg = std::make_shared<objects::VitanyiRegister>(
        "R", w,
        objects::VitanyiRegister::Options{.num_processes = 3,
                                          .preamble_iterations = 2});
    for (Pid pid = 0; pid < 3; ++pid) {
      w.add_process(std::string("p").append(std::to_string(pid)),
                    [reg, pid](sim::Proc p) -> sim::Task<void> {
                      co_await reg->write(p, sim::Value(std::int64_t{pid}));
                      (void)co_await reg->read(p);
                      (void)co_await reg->read(p);
                    });
    }
    r.pi = reg->preamble_mapping();
    r.reg = reg;
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 17 + 7);
  fault::ChaosAdversary adv(uniform, plan);
  r.completed = w.run(adv).status == sim::RunStatus::kCompleted;
  return r;
}

/// Checks `tree` and re-checks the "yes" through its certificate.
void expect_certified(const lin::PrefixTree& tree,
                      const lin::SequentialSpec& spec,
                      const std::string& what) {
  const lin::StrongCheckResult r = lin::check_prefix_tree(tree, spec);
  ASSERT_TRUE(r.ok) << what << ": " << r.detail;
  ASSERT_EQ(r.linearizations.size(), static_cast<std::size_t>(tree.size()))
      << what;
  for (int n = 0; n < tree.size(); ++n) {
    const std::vector<InvocationId>& order =
        r.linearizations[static_cast<std::size_t>(n)];
    std::string why;
    EXPECT_TRUE(
        lin::validate_linearization(tree.node(n).h, spec, order, &why))
        << what << ", node " << n << ": " << why;
    if (n == 0) continue;
    const std::vector<InvocationId>& up =
        r.linearizations[static_cast<std::size_t>(tree.node(n).parent)];
    EXPECT_TRUE(up.size() <= order.size() &&
                std::equal(up.begin(), up.end(), order.begin()))
        << what << ", node " << n << ": order does not extend its parent's";
  }
}

TEST(StrongCertificate, SeededChaosChainsCarryValidOrders) {
  // ABD^1 and ABD^2 under Π_ABD (Theorem 5.1), Vitányi–Awerbuch and
  // Israeli–Li under their own mappings.
  const lin::RegisterSpec spec;
  int certified[4] = {0, 0, 0, 0};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const int k : {1, 2}) {
      const ChaosAbd run = run_chaos_abd(seed, k, objects::AbdBug::kNone);
      if (!run.completed) continue;
      expect_certified(
          lin::PrefixTree::chain_of(lin::History::from_world(*run.world),
                                    run.reg->preamble_mapping()),
          spec, "ABD^" + std::to_string(k) + " seed " + std::to_string(seed));
      ++certified[k - 1];
    }
    for (const bool il : {false, true}) {
      const SharedMemRun run = run_chaos_shared_mem(seed, il);
      if (!run.completed) continue;
      expect_certified(
          lin::PrefixTree::chain_of(lin::History::from_world(*run.world),
                                    run.pi),
          spec,
          std::string(il ? "Israeli-Li" : "Vitanyi") + " seed " +
              std::to_string(seed));
      ++certified[il ? 3 : 2];
    }
  }
  for (const int c : certified) EXPECT_GT(c, 30);
}

TEST(StrongCertificate, Figure1PiAbdTreeCarriesValidOrders) {
  // The Figure 1 branch pair merged under Π_ABD: the tail-strong "yes" of
  // Theorem 5.1 on a tree with a real branch point.
  const adversary::Figure1Run a = adversary::run_figure1(0);
  const adversary::Figure1Run b = adversary::run_figure1(1);
  const lin::History ha =
      lin::History::from_world(*a.world).project_object(a.r_object_id);
  const lin::History hb =
      lin::History::from_world(*b.world).project_object(b.r_object_id);
  const lin::PrefixTree tree = lin::PrefixTree::merge_traced(
      {{&ha, &a.world->trace()}, {&hb, &b.world->trace()}},
      a.r->preamble_mapping());
  int branch_points = 0;
  for (int n = 0; n < tree.size(); ++n) {
    if (tree.node(n).children.size() > 1) ++branch_points;
  }
  EXPECT_EQ(branch_points, 1);
  expect_certified(tree, lin::RegisterSpec{}, "Figure 1, Pi_ABD");
}

}  // namespace
}  // namespace blunt
