// Tests for the Vitanyi–Awerbuch MWMR register (Section 5.3).
#include "objects/vitanyi.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

using sim::Value;

Value v(std::int64_t x) { return Value(x); }

TEST(Vitanyi, WriteThenReadSameProcess) {
  auto w = test::make_world();
  VitanyiRegister reg("R", *w, {.num_processes = 3});
  Value got;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(5));
    got = co_await reg.read(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, v(5));
}

TEST(Vitanyi, FreshReadReturnsInitial) {
  auto w = test::make_world();
  VitanyiRegister reg("R", *w, {.num_processes = 2, .initial = v(42)});
  Value got;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    got = co_await reg.read(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, v(42));
}

TEST(Vitanyi, LaterWriterWinsAcrossProcesses) {
  // p0 writes, then (sequenced by a flag) p1 writes, then p0 reads: must see
  // p1's value — timestamps grow across processes.
  auto w = test::make_world();
  VitanyiRegister reg("R", *w, {.num_processes = 2});
  bool p0_wrote = false;
  bool p1_done = false;
  Value got;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(1));
    p0_wrote = true;
    p.world().wake_hint(1);
    co_await p.wait_until([&p1_done] { return p1_done; }, "sync");
    got = co_await reg.read(p);
  });
  w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&p0_wrote] { return p0_wrote; }, "sync");
    co_await reg.write(p, v(2));
    p1_done = true;
    p.world().wake_hint(0);
  });
  sim::UniformAdversary adv(3);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, v(2));
}

TEST(Vitanyi, TimestampTieBreakByProcessId) {
  // Two concurrent first writes get integer part 1; the lexicographic tie
  // break on process id makes exactly one win consistently for all readers.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto w = test::make_world(seed);
    VitanyiRegister reg("R", *w, {.num_processes = 3});
    Value r1, r2;
    bool writes_done0 = false, writes_done1 = false;
    w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, v(10));
      writes_done0 = true;
      p.world().wake_hint(2);
    });
    w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, v(20));
      writes_done1 = true;
      p.world().wake_hint(2);
    });
    w->add_process("p2", [&](sim::Proc p) -> sim::Task<void> {
      co_await p.wait_until([&] { return writes_done0 && writes_done1; },
                            "sync");
      r1 = co_await reg.read(p);
      r2 = co_await reg.read(p);
    });
    sim::UniformAdversary adv(seed + 77);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_EQ(r1, r2) << "seed=" << seed;  // stable after both writes done
  }
}

class VitanyiSoak : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VitanyiSoak, HistoriesLinearizable) {
  const auto [k, seed] = GetParam();
  auto w = test::make_world(static_cast<std::uint64_t>(seed));
  VitanyiRegister reg("R", *w,
                      {.num_processes = 3, .preamble_iterations = k});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, v(pid * 10));
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary adv(static_cast<std::uint64_t>(seed) * 131 + 7);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const lin::History h = lin::History::from_world(*w);
  lin::RegisterSpec spec;
  EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
      << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeeds, VitanyiSoak,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Range(0, 25)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(VitanyiK, ObjectRandomStepsOnlyWhenKGreaterOne) {
  for (const int k : {1, 2}) {
    auto w = test::make_world(5);
    VitanyiRegister reg("R", *w,
                        {.num_processes = 2, .preamble_iterations = k});
    w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, v(1));
      (void)co_await reg.read(p);
    });
    sim::FirstEnabledAdversary adv;
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    EXPECT_EQ(w->random_draws(), k > 1 ? 2 : 0) << "k=" << k;
  }
}

TEST(Vitanyi, PreambleMappingCoversBothMethods) {
  auto w = test::make_world();
  VitanyiRegister reg("R", *w, {.num_processes = 2});
  const lin::PreambleMapping pi = reg.preamble_mapping();
  lin::Operation rd;
  rd.object_name = "R";
  rd.method = "Read";
  lin::Operation wr;
  wr.object_name = "R";
  wr.method = "Write";
  EXPECT_EQ(pi.line_for(rd), VitanyiRegister::kReadPreambleLine);
  EXPECT_EQ(pi.line_for(wr), VitanyiRegister::kWritePreambleLine);
}

}  // namespace
}  // namespace blunt::objects
