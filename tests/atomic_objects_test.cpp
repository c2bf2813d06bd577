// Tests for the atomic baseline objects (Section 2.1 / Proposition 2.2):
// call and return happen within one scheduler step, histories are trivially
// strongly linearizable.
#include "objects/atomic.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/strong.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::objects {
namespace {

using sim::Value;

Value v(std::int64_t x) { return Value(x); }

TEST(AtomicRegister, ReadAfterWrite) {
  auto w = test::make_world();
  AtomicRegister reg("R", *w, sim::Value{});
  Value got;
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(3));
    got = co_await reg.read(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(got, v(3));
}

TEST(AtomicRegister, CallImmediatelyFollowedByReturn) {
  auto w = test::make_world();
  AtomicRegister reg("R", *w, sim::Value{});
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(1));
    (void)co_await reg.read(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  // The paper's atomicity: every call transition is immediately followed by
  // its return transition. In trace terms: call_index + 1 == return_index.
  for (const auto& rec : w->invocations()) {
    EXPECT_EQ(rec.return_index, rec.call_index + 1) << rec.method;
  }
}

TEST(AtomicRegister, NoInternalStepsForAdversary) {
  // An atomic op takes exactly one scheduler step; between enabled-event
  // enumerations there is nothing inside the op to interleave.
  auto w = test::make_world();
  AtomicRegister reg("R", *w, sim::Value{});
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, v(1));
  });
  sim::FirstEnabledAdversary adv;
  const auto r = w->run(adv);
  ASSERT_EQ(r.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(r.steps, 2);  // start + the single write step
}

TEST(AtomicRegister, ConcurrentSoakIsStronglyLinearizable) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    auto w = test::make_world(seed);
    AtomicRegister reg("R", *w, sim::Value{});
    for (Pid pid = 0; pid < 3; ++pid) {
      w->add_process(std::string("p").append(std::to_string(pid)),
                     [&reg, pid](sim::Proc p) -> sim::Task<void> {
                       co_await reg.write(p, v(pid));
                       (void)co_await reg.read(p);
                     });
    }
    sim::UniformAdversary adv(seed);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    const lin::History h = lin::History::from_world(*w);
    lin::RegisterSpec spec;
    // Atomic objects satisfy the strongest check: prefix-chain with the
    // trivial preamble (i.e. strong linearizability along this execution).
    const auto res =
        lin::check_prefix_chain(h, spec, lin::PreambleMapping::trivial());
    EXPECT_TRUE(res.ok) << res.detail;
  }
}

TEST(AtomicSnapshot, UpdateThenScan) {
  auto w = test::make_world();
  AtomicSnapshot snap("S", *w, 3);
  std::vector<std::int64_t> view;
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await snap.update(p, 5);
    view = co_await snap.scan(p);
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_EQ(view, (std::vector<std::int64_t>{5, 0, 0}));
}

TEST(AtomicSnapshot, SoakSatisfiesSnapshotSpec) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto w = test::make_world(seed);
    AtomicSnapshot snap("S", *w, 3);
    for (Pid pid = 0; pid < 2; ++pid) {
      w->add_process(std::string("u").append(std::to_string(pid)),
                     [&snap, pid](sim::Proc p) -> sim::Task<void> {
                       co_await snap.update(p, pid + 1);
                     });
    }
    w->add_process("s", [&snap](sim::Proc p) -> sim::Task<void> {
      (void)co_await snap.scan(p);
      (void)co_await snap.scan(p);
    });
    sim::UniformAdversary adv(seed + 500);
    ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
    const lin::History h = lin::History::from_world(*w);
    lin::SnapshotSpec spec(3);
    EXPECT_TRUE(lin::check_linearizable(h, spec).linearizable)
        << h.to_string();
  }
}

}  // namespace
}  // namespace blunt::objects
