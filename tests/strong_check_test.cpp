// Tests for the prefix-tree strong/tail-strong linearizability checker
// (Section 3).
//
// The centerpiece is a hand-built execution tree with the exact shape the
// strong adversary creates against ABD (Appendix A.2): a common prefix in
// which two pending writes' linearization order is already forced by
// completed reads while another read Rx is still pending, and two extensions
// in which Rx returns different values. No prefix-preserving linearization
// exists (strong linearizability fails), but once Rx's preamble line is
// required for node membership (tail strong linearizability w.r.t. a
// nontrivial Π), the offending common node is excluded and the check passes.
#include "lin/strong.hpp"

#include <gtest/gtest.h>

#include "lin/check.hpp"
#include "test_util.hpp"

namespace blunt::lin {
namespace {

RegisterSpec bottom_reg;

TEST(PreambleMapping, TrivialAlwaysComplete) {
  test::HistoryBuilder hb;
  hb.pending_write(0, 1, 0);
  hb.pending_read(1, 1);
  const PreambleMapping pi = PreambleMapping::trivial();
  EXPECT_TRUE(pi.history_complete(hb.build()));
}

TEST(PreambleMapping, RequiresLinePassForPendingOps) {
  PreambleMapping pi;
  pi.set("obj", "Read", 22);
  test::HistoryBuilder hb;
  hb.pending_read(0, 0);
  EXPECT_FALSE(pi.history_complete(hb.build()));

  test::HistoryBuilder hb2;
  hb2.pending_read(0, 0);
  hb2.passed(22, 3);
  EXPECT_TRUE(pi.history_complete(hb2.build()));

  // Returned ops are complete regardless of marks.
  test::HistoryBuilder hb3;
  hb3.read(0, 0, 0, 5);
  EXPECT_TRUE(pi.history_complete(hb3.build()));
}

TEST(PrefixTree, ChainOfSequentialHistory) {
  test::HistoryBuilder hb;
  hb.write(0, 1, 0, 1);
  hb.read(1, 1, 2, 3);
  const PrefixTree tree =
      PrefixTree::chain_of(hb.build(), PreambleMapping::trivial());
  // Cuts after each of the 4 actions, plus the empty root.
  EXPECT_EQ(tree.size(), 5);
  for (int i = 1; i < tree.size(); ++i) {
    EXPECT_EQ(tree.node(i).parent, i - 1);
  }
}

TEST(StrongCheck, SequentialHistoryPasses) {
  test::HistoryBuilder hb;
  hb.write(0, 1, 0, 1);
  hb.read(1, 1, 2, 3);
  hb.write(0, 2, 4, 5);
  hb.read(1, 2, 6, 7);
  const auto res =
      check_prefix_chain(hb.build(), bottom_reg, PreambleMapping::trivial());
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(StrongCheck, ConcurrentButConsistentPasses) {
  // One pending write observed by a later read.
  test::HistoryBuilder hb;
  hb.pending_write(0, 1, 0);
  hb.read(1, 1, 2, 3);
  hb.read(1, 1, 4, 5);
  const auto res =
      check_prefix_chain(hb.build(), bottom_reg, PreambleMapping::trivial());
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(StrongCheck, NonLinearizableChainFails) {
  // Plain linearizability violation is also a strong-lin violation.
  test::HistoryBuilder hb;
  hb.write(0, 5, 0, 1);
  hb.op(1, "Read", {}, sim::Value{}, 2, 3);  // stale ⊥ read
  const auto res =
      check_prefix_chain(hb.build(), bottom_reg, PreambleMapping::trivial());
  EXPECT_FALSE(res.ok);
}

// Builds the two branch histories of the ABD-style violation. Shared prefix
// actions (identical in both branches):
//   W1 = Write(1) by p0, pending        (call 0)
//   W2 = Write(2) by p1, pending        (call 1)
//   Rx = Read by p2, pending            (call 2)
//   Ra = Read(2) by p3                  (call 3, ret 4)
//   Rd = Read(1) by p3                  (call 5, ret 6)
// Ra then Rd force the commitment W2 before W1 in any linearization of the
// prefix. Branch A: Rx returns 2 (ret 9). Branch B: Rx returns 1 (ret 9).
// Appending Rx after the forced prefix yields state 1, so branch A's value 2
// requires committing Rx(2) early — which branch B contradicts.
History violation_branch(std::int64_t rx_value, int rx_preamble_pass) {
  test::HistoryBuilder hb;
  hb.pending_write(0, 1, 0);
  hb.pending_write(1, 2, 1);
  hb.op(2, "Read", {}, sim::Value(rx_value), 2, 9);
  if (rx_preamble_pass >= 0) hb.passed(22, rx_preamble_pass);
  hb.read(3, 2, 3, 4);
  hb.read(3, 1, 5, 6);
  return hb.build();
}

TEST(StrongCheck, EachViolationBranchAloneIsLinearizable) {
  for (const std::int64_t v : {1, 2}) {
    EXPECT_TRUE(check_linearizable(violation_branch(v, -1), bottom_reg)
                    .linearizable)
        << "rx=" << v;
    EXPECT_TRUE(check_prefix_chain(violation_branch(v, -1), bottom_reg,
                                   PreambleMapping::trivial())
                    .ok)
        << "rx=" << v;
  }
}

TEST(StrongCheck, ViolationTreeFailsStrongLinearizability) {
  const std::vector<History> execs = {violation_branch(2, -1),
                                      violation_branch(1, -1)};
  const PrefixTree tree =
      PrefixTree::merge(execs, PreambleMapping::trivial());
  const auto res = check_prefix_tree(tree, bottom_reg);
  EXPECT_FALSE(res.ok);
  EXPECT_GE(res.failing_node, 0);
}

TEST(StrongCheck, ViolationTreeRescuedByTailPreamble) {
  // Π(Read) = 22. In the real ABD object, once Rx passes line 22 its value
  // is fixed, so two executions disagreeing on Rx's value must have diverged
  // BEFORE the pass — modeled here by giving the branches different
  // preamble-pass positions (7 vs 8). Under Π, every *shared* prefix with Rx
  // called but un-passed is Π-incomplete and excluded from the tree, so the
  // forced-commitment node is never common to both branches, and each branch
  // commits its own Rx value on its own side. Tail strong linearizability
  // holds on this tree — the Section 3 rescue.
  PreambleMapping pi;
  pi.set("obj", "Read", 22);
  const std::vector<History> execs = {violation_branch(2, 7),
                                      violation_branch(1, 8)};
  const PrefixTree tree = PrefixTree::merge(execs, pi);
  const auto res = check_prefix_tree(tree, bottom_reg);
  EXPECT_TRUE(res.ok) << res.detail;

  // Sanity: with the TRIVIAL preamble the same pair of executions still
  // refutes strong linearizability (the shared un-passed prefix is back in
  // the tree).
  const PrefixTree tree0 =
      PrefixTree::merge(execs, PreambleMapping::trivial());
  EXPECT_FALSE(check_prefix_tree(tree0, bottom_reg).ok);
}

TEST(StrongCheck, TreeMergeSharesCommonPrefixNodes) {
  const std::vector<History> execs = {violation_branch(2, -1),
                                      violation_branch(1, -1)};
  const PrefixTree tree =
      PrefixTree::merge(execs, PreambleMapping::trivial());
  // Shared cuts: after calls of W1, W2, Rx, Ra; after ret of Ra; after call
  // and ret of Rd (7 shared nodes) + root; then one divergent leaf per
  // branch (cut after Rx's return).
  EXPECT_EQ(tree.size(), 1 + 7 + 2);
  // Exactly one node has two children (the divergence point).
  int branch_nodes = 0;
  for (int i = 0; i < tree.size(); ++i) {
    if (tree.node(i).children.size() == 2) ++branch_nodes;
  }
  EXPECT_EQ(branch_nodes, 1);
}

TEST(StrongCheck, EarlyCommitResultHonored) {
  // A pending read whose value must be committed early and *matches* the
  // eventual return is fine.
  test::HistoryBuilder hb;
  hb.pending_write(0, 1, 0);     // W(1) pending
  hb.op(1, "Read", {}, sim::Value(std::int64_t{1}), 1, 10);  // Rx = 1
  hb.read(2, 1, 2, 3);           // forces W(1) committed early
  const auto res =
      check_prefix_chain(hb.build(), bottom_reg, PreambleMapping::trivial());
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(StrongCheck, QueueSpecChainCommitsAPendingEnqueueEarly) {
  // QueueSpec states cannot undo, so this exercises the clone fallback.
  // Deq returns 1 while Enq(1) is still pending and Enq(2) has returned:
  // Enq(1) must be linearized before Enq(2), at the node where Enq(2)
  // returns, before its own return.
  test::HistoryBuilder hb("Q");
  hb.op(0, "Enq", sim::Value(std::int64_t{1}), sim::Value{}, 0, 9);
  hb.op(1, "Enq", sim::Value(std::int64_t{2}), sim::Value{}, 1, 2);
  hb.op(2, "Deq", {}, sim::Value(std::int64_t{1}), 3, 4);
  const QueueSpec queue;
  const PrefixTree tree =
      PrefixTree::chain_of(hb.build(), PreambleMapping::trivial());
  const auto res = check_prefix_tree(tree, queue);
  ASSERT_TRUE(res.ok) << res.detail;
  ASSERT_EQ(res.linearizations.size(), static_cast<std::size_t>(tree.size()));
  for (int n = 0; n < tree.size(); ++n) {
    std::string why;
    EXPECT_TRUE(validate_linearization(
        tree.node(n).h, queue,
        res.linearizations[static_cast<std::size_t>(n)], &why))
        << "node " << n << ": " << why;
  }
  // The node where Enq(2) returns already commits Enq(1) then Enq(2).
  EXPECT_EQ(res.linearizations[3], (std::vector<InvocationId>{0, 1}));

  test::HistoryBuilder bad("Q");
  bad.op(0, "Enq", sim::Value(std::int64_t{1}), sim::Value{}, 0, 1);
  bad.op(1, "Deq", {}, sim::Value(std::int64_t{3}), 2, 3);
  const auto bad_res =
      check_prefix_chain(bad.build(), queue, PreambleMapping::trivial());
  EXPECT_FALSE(bad_res.ok);
  EXPECT_EQ(bad_res.failing_node, 4);  // the cut after Deq's return
  EXPECT_TRUE(bad_res.linearizations.empty());
}

// `count` sequential writes, each returning before the next is called.
History sequential_writes(int count) {
  test::HistoryBuilder hb;
  for (int i = 0; i < count; ++i) hb.write(i % 3, i, 2 * i, 2 * i + 1);
  return hb.build();
}

TEST(StrongCheck, TreeOfSixtyFourInvocationsIsChecked) {
  const PrefixTree tree =
      PrefixTree::chain_of(sequential_writes(kMaxTreeInvocations),
                           PreambleMapping::trivial());
  const auto res = check_prefix_tree(tree, bottom_reg);
  ASSERT_TRUE(res.ok) << res.detail;
  EXPECT_EQ(res.linearizations.back().size(),
            static_cast<std::size_t>(kMaxTreeInvocations));
}

TEST(StrongCheckDeathTest, TreeOfMoreThanSixtyFourInvocationsAborts) {
  const PrefixTree tree(sequential_writes(kMaxTreeInvocations + 1));
  EXPECT_DEATH((void)check_prefix_tree(tree, bottom_reg),
               "65 distinct invocations \\(cap 64\\)");
}

}  // namespace
}  // namespace blunt::lin
