// Tests for the Israeli–Li multi-reader register (Section 5.4).
#include "objects/israeli_li.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

using sim::Value;

Value v(std::int64_t x) { return Value(x); }

// Convention in all tests: readers are p0, p1; writer is p2.
IsraeliLiRegister::Options opts(int k = 1) {
  return {.num_readers = 2,
          .writer = 2,
          .initial = sim::Value{},
          .preamble_iterations = k};
}

TEST(IsraeliLi, FreshReadReturnsInitial) {
  auto w = test::make_world();
  IsraeliLiRegister reg("R", *w, opts());
  Value got{std::int64_t{9}};
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    got = co_await reg.read(p);
  });
  w->add_process("p1", [](sim::Proc) -> sim::Task<void> { co_return; });
  w->add_process("p2", [](sim::Proc) -> sim::Task<void> { co_return; });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(sim::is_bottom(got));
}

TEST(IsraeliLi, ReadAfterCompletedWrite) {
  auto w = test::make_world();
  IsraeliLiRegister reg("R", *w, opts());
  bool wrote = false;
  Value got;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&wrote] { return wrote; }, "sync");
    got = co_await reg.read(p);
  });
  w->add_process("p1", [](sim::Proc) -> sim::Task<void> { co_return; });
  w->add_process("p2", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(6));
    wrote = true;
    p.world().wake_hint(0);
  });
  sim::UniformAdversary adv(4);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, v(6));
}

TEST(IsraeliLi, ReadersPropagateThroughReports) {
  // p0 reads the new value; p1's subsequent read must not be older (reader-
  // to-reader propagation via the Report matrix).
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    auto w = test::make_world(seed);
    IsraeliLiRegister reg("R", *w, opts());
    Value first, second;
    bool p0_done = false;
    w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
      first = co_await reg.read(p);
      p0_done = true;
      p.world().wake_hint(1);
    });
    w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
      co_await p.wait_until([&p0_done] { return p0_done; }, "sync");
      second = co_await reg.read(p);
    });
    w->add_process("p2", [&](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, v(1));
    });
    sim::UniformAdversary adv(seed * 3 + 1);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    if (first == v(1)) {
      EXPECT_EQ(second, v(1)) << "seed=" << seed << " (new/old inversion)";
    }
  }
}

class IsraeliLiSoak : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IsraeliLiSoak, HistoriesLinearizable) {
  const auto [k, seed] = GetParam();
  auto w = test::make_world(static_cast<std::uint64_t>(seed));
  IsraeliLiRegister reg("R", *w, opts(k));
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("r" + std::to_string(pid),
                   [&reg](sim::Proc p) -> sim::Task<void> {
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  w->add_process("writer", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(1));
    co_await reg.write(p, v(2));
  });
  sim::UniformAdversary adv(static_cast<std::uint64_t>(seed) * 17 + 3);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const lin::History h = lin::History::from_world(*w);
  lin::RegisterSpec spec;
  EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
      << h.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeeds, IsraeliLiSoak,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Range(0, 25)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IsraeliLiK, ObjectRandomStepsOnReadsOnly) {
  auto w = test::make_world(6);
  IsraeliLiRegister reg("R", *w, opts(2));
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    (void)co_await reg.read(p);
  });
  w->add_process("p1", [](sim::Proc) -> sim::Task<void> { co_return; });
  w->add_process("p2", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(1));
  });
  sim::UniformAdversary adv(2);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  // Write is never iterated (empty preamble); the read draws once.
  EXPECT_EQ(w->random_draws(), 1);
}

TEST(IsraeliLi, PreambleMapsReadOnly) {
  auto w = test::make_world();
  IsraeliLiRegister reg("R", *w, opts());
  const lin::PreambleMapping pi = reg.preamble_mapping();
  lin::Operation rd;
  rd.object_name = "R";
  rd.method = "Read";
  lin::Operation wr;
  wr.object_name = "R";
  wr.method = "Write";
  EXPECT_EQ(pi.line_for(rd), IsraeliLiRegister::kReadPreambleLine);
  EXPECT_EQ(pi.line_for(wr), 0);
}

using IsraeliLiDeathTest = ::testing::Test;

TEST(IsraeliLiDeathTest, NonWriterCannotWrite) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto body = [] {
    auto w = test::make_world();
    IsraeliLiRegister reg("R", *w, opts());
    w->add_process("p0", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, v(1));
    });
    sim::FirstEnabledAdversary adv;
    (void)w->run(adv);
  };
  EXPECT_DEATH(body(), "single-writer");
}

TEST(IsraeliLiDeathTest, NonReaderCannotRead) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto body = [] {
    auto w = test::make_world();
    IsraeliLiRegister reg("R", *w, opts());
    w->add_process("p0", [](sim::Proc) -> sim::Task<void> { co_return; });
    w->add_process("p1", [](sim::Proc) -> sim::Task<void> { co_return; });
    w->add_process("p2", [&reg](sim::Proc p) -> sim::Task<void> {
      (void)co_await reg.read(p);
    });
    sim::FirstEnabledAdversary adv;
    (void)w->run(adv);
  };
  EXPECT_DEATH(body(), "non-reader");
}

}  // namespace
}  // namespace blunt::objects
