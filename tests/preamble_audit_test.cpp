// Tests for the effect-free-preamble audit (Section 4.1) across the object
// catalogue, plus a deliberately violating object.
#include "core/preamble_audit.hpp"

#include <gtest/gtest.h>

#include "mem/base_register.hpp"
#include "objects/abd.hpp"
#include "objects/israeli_li.hpp"
#include "objects/snapshot.hpp"
#include "objects/vitanyi.hpp"
#include "sim/adversaries.hpp"
#include "test_util.hpp"

namespace blunt::core {
namespace {

TEST(PreambleAudit, AbdPreamblesAreEffectFree) {
  auto w = test::make_world(1);
  objects::AbdRegister reg("R", *w,
                           {.num_processes = 3, .preamble_iterations = 2});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process(std::string("p").append(std::to_string(pid)),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary adv(9);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  const AuditResult res =
      audit_effect_free_preambles(*w, reg.preamble_mapping());
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.violations.empty());
}

TEST(PreambleAudit, SnapshotScanPreambleIsEffectFree) {
  auto w = test::make_world(2);
  objects::AfekSnapshot snap("S", *w,
                             {.num_processes = 2, .preamble_iterations = 2});
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await snap.update(p, 1);
    (void)co_await snap.scan(p);
  });
  w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
    (void)co_await snap.scan(p);
    co_await snap.update(p, 2);
  });
  sim::UniformAdversary adv(1);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(audit_effect_free_preambles(*w, snap.preamble_mapping()).ok);
}

TEST(PreambleAudit, VitanyiPreamblesAreEffectFree) {
  auto w = test::make_world(3);
  objects::VitanyiRegister reg("R", *w,
                               {.num_processes = 2,
                                .preamble_iterations = 3});
  w->add_process("p0", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
    (void)co_await reg.read(p);
  });
  w->add_process("p1", [&](sim::Proc p) -> sim::Task<void> {
    (void)co_await reg.read(p);
    co_await reg.write(p, sim::Value(std::int64_t{2}));
  });
  sim::UniformAdversary adv(5);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(audit_effect_free_preambles(*w, reg.preamble_mapping()).ok);
}

TEST(PreambleAudit, IsraeliLiReadPreambleIsEffectFree) {
  auto w = test::make_world(4);
  objects::IsraeliLiRegister reg(
      "R", *w,
      {.num_readers = 2, .writer = 2, .preamble_iterations = 2});
  w->add_process("r0", [&](sim::Proc p) -> sim::Task<void> {
    (void)co_await reg.read(p);
  });
  w->add_process("r1", [&](sim::Proc p) -> sim::Task<void> {
    (void)co_await reg.read(p);
  });
  w->add_process("w", [&](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
  });
  sim::UniformAdversary adv(6);
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(audit_effect_free_preambles(*w, reg.preamble_mapping()).ok);
}

TEST(PreambleAudit, FlagsWriteInsidePreamble) {
  // A deliberately broken object: writes a base register BEFORE marking its
  // preamble end. The audit must flag it.
  auto w = test::make_world(5);
  const int obj = w->register_object("bad");
  mem::BaseRegister cell("bad.cell", sim::Value{});
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    const InvocationId inv =
        p.world().begin_invocation(p.pid(), obj, "Read", {});
    co_await cell.write(p, sim::Value(std::int64_t{1}), inv);  // effectful!
    p.world().mark_line(inv, 22);
    p.world().end_invocation(inv, {});
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  lin::PreambleMapping pi;
  pi.set("bad", "Read", 22);
  const AuditResult res = audit_effect_free_preambles(*w, pi);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_EQ(res.violations[0].inv, 0);
}

TEST(PreambleAudit, TailWritesAreAllowed) {
  // Writes after the preamble mark are fine (that's the tail).
  auto w = test::make_world(6);
  const int obj = w->register_object("ok");
  mem::BaseRegister cell("ok.cell", sim::Value{});
  w->add_process("p", [&](sim::Proc p) -> sim::Task<void> {
    const InvocationId inv =
        p.world().begin_invocation(p.pid(), obj, "Write", {});
    (void)co_await cell.read(p, inv);  // preamble: read-only
    p.world().mark_line(inv, 50);
    co_await cell.write(p, sim::Value(std::int64_t{1}), inv);  // tail
    p.world().end_invocation(inv, {});
  });
  sim::FirstEnabledAdversary adv;
  ASSERT_EQ(w->run(adv).status, sim::RunStatus::kCompleted);
  lin::PreambleMapping pi;
  pi.set("ok", "Write", 50);
  EXPECT_TRUE(audit_effect_free_preambles(*w, pi).ok);
}

}  // namespace
}  // namespace blunt::core
