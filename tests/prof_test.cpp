// Deterministic profiler core (obs/prof.hpp) and its exporters
// (obs/prof_export.hpp): snapshot merge exactness, all-integer JSON that
// survives a text round trip, collapsed-stack flamegraph shape, null-safe
// scoped timers, the replace-not-nest allocation scopes, and self-time
// arithmetic.
#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/prof_export.hpp"

namespace blunt::obs {
namespace {

ProfileSnapshot make_snapshot(std::int64_t scale) {
  ProfileSnapshot s;
  s.phases[static_cast<std::size_t>(Phase::kRun)] = {1 * scale, 1000 * scale};
  s.phases[static_cast<std::size_t>(Phase::kEnabledScan)] = {10 * scale,
                                                             600 * scale};
  s.phases[static_cast<std::size_t>(Phase::kQuorum)] = {20 * scale,
                                                        100 * scale};
  s.phases[static_cast<std::size_t>(Phase::kLinCheck)] = {2 * scale,
                                                          50 * scale};
  s.counters[static_cast<std::size_t>(ProfCounter::kEventsScanned)] =
      123 * scale;
  s.counters[static_cast<std::size_t>(ProfCounter::kBytesAllocated)] =
      4096 * scale;
  return s;
}

TEST(ProfSnapshot, MergeIsElementwiseAddition) {
  ProfileSnapshot a = make_snapshot(1);
  const ProfileSnapshot b = make_snapshot(3);
  a.merge(b);
  EXPECT_EQ(a, make_snapshot(4));
  EXPECT_EQ(a.phase(Phase::kEnabledScan).calls, 40);
  EXPECT_EQ(a.phase(Phase::kEnabledScan).ns, 2400);
  EXPECT_EQ(a.counter(ProfCounter::kEventsScanned), 492);
  // Merging an empty snapshot is the identity.
  a.merge(ProfileSnapshot{});
  EXPECT_EQ(a, make_snapshot(4));
}

TEST(ProfSnapshot, EmptyAndZeroAdvisoryNs) {
  ProfileSnapshot s;
  EXPECT_TRUE(s.empty());
  s = make_snapshot(1);
  EXPECT_FALSE(s.empty());
  ProfileSnapshot t = make_snapshot(1);
  t.phases[static_cast<std::size_t>(Phase::kRun)].ns += 999;  // timing jitter
  EXPECT_FALSE(s == t);
  s.zero_advisory_ns();
  t.zero_advisory_ns();
  EXPECT_EQ(s, t);  // calls and counters survive, jitter is gone
  EXPECT_EQ(s.phase(Phase::kRun).calls, 1);
  EXPECT_EQ(s.phase(Phase::kRun).ns, 0);
}

TEST(ProfSnapshot, JsonRoundTripIsExact) {
  const ProfileSnapshot s = make_snapshot(7);
  const Json j = profile_to_json(s);
  // All-integer payload: the dump is byte-stable through parse + re-dump.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
  EXPECT_EQ(j.at("phases").at("enabled_scan").at("calls").as_int(), 70);
  EXPECT_EQ(j.at("phases").at("enabled_scan").at("ns").as_int(), 4200);
  EXPECT_EQ(j.at("counters").at("events_scanned").as_int(), 861);
  // Zero-valued phases/counters are omitted from the JSON.
  EXPECT_EQ(j.at("phases").find("execute"), nullptr);
  EXPECT_EQ(j.at("counters").find("memo_probes"), nullptr);
}

TEST(ProfExport, SelfTimeSubtractsChildren) {
  const ProfileSnapshot s = make_snapshot(1);
  // run (1000) - enabled_scan (600) - adversary_choice (0) - execute (0).
  EXPECT_EQ(profile_self_ns(s, Phase::kRun), 400);
  // enabled_scan has no children since quorum moved under net_delivery.
  EXPECT_EQ(profile_self_ns(s, Phase::kEnabledScan), 600);
  // Leaf phases keep their inclusive time.
  EXPECT_EQ(profile_self_ns(s, Phase::kQuorum), 100);
  // Clock granularity can make children read longer than the parent; self
  // time clamps at zero instead of going negative.
  ProfileSnapshot skew = make_snapshot(1);
  skew.phases[static_cast<std::size_t>(Phase::kEnabledScan)].ns = 9999;
  EXPECT_EQ(profile_self_ns(skew, Phase::kRun), 0);
}

TEST(ProfExport, CollapsedStacksFollowTheStaticHierarchy) {
  const ProfileSnapshot s = make_snapshot(1);
  const std::string flame = profile_to_collapsed_stacks(s);
  std::vector<std::string> lines;
  std::istringstream is(flame);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  // One line per phase with calls > 0, `parent;...;phase <self_ns>`.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "run 400");
  EXPECT_EQ(lines[1], "run;enabled_scan 600");
  EXPECT_EQ(lines[2], "run;execute;net_delivery;quorum 100");
  EXPECT_EQ(lines[3], "lin_check 50");
  // A root frame prefixes every stack (per-snapshot attribution in merged
  // flamegraph files).
  const std::string tagged = profile_to_collapsed_stacks(s, "n64");
  EXPECT_NE(tagged.find("n64;run;execute;net_delivery;quorum 100\n"),
            std::string::npos);
  // An empty snapshot exports as empty text, not a header or a zero line.
  EXPECT_EQ(profile_to_collapsed_stacks(ProfileSnapshot{}), "");
}

TEST(ProfScope, ScopedPhaseIsNullSafeAndCounts) {
  {
    ScopedPhase off(nullptr, Phase::kRun);  // must not crash or allocate
  }
  Profiler prof;
  {
    ScopedPhase run(&prof, Phase::kRun);
    ScopedPhase scan(&prof, Phase::kEnabledScan);
  }
  {
    ScopedPhase scan(&prof, Phase::kEnabledScan);
  }
  EXPECT_EQ(prof.snapshot().phase(Phase::kRun).calls, 1);
  EXPECT_EQ(prof.snapshot().phase(Phase::kEnabledScan).calls, 2);
  EXPECT_GE(prof.snapshot().phase(Phase::kRun).ns, 0);
  prof.count(ProfCounter::kEventsScanned, 5);
  prof.count(ProfCounter::kEventsScanned);
  EXPECT_EQ(prof.snapshot().counter(ProfCounter::kEventsScanned), 6);
}

TEST(ProfAlloc, AllocScopeCountsAndReplacesNotNests) {
  // This test links blunt_obs, so the counting operator-new hook is live.
  AllocTally outer, inner;
  {
    AllocScope so(&outer);
    // Force a real heap allocation the optimizer cannot elide.
    auto p = std::make_unique<std::vector<std::int64_t>>(1024);
    p->back() = 1;
    {
      AllocScope si(&inner);
      auto q = std::make_unique<std::vector<std::int64_t>>(2048);
      q->back() = 2;
    }
    // After the inner scope exits, billing returns to the outer tally.
    auto r = std::make_unique<std::vector<std::int64_t>>(512);
    r->back() = 3;
  }
  EXPECT_GE(outer.calls, 2);
  EXPECT_GE(outer.bytes, static_cast<std::int64_t>((1024 + 512) * 8));
  EXPECT_GE(inner.calls, 1);
  EXPECT_GE(inner.bytes, static_cast<std::int64_t>(2048 * 8));
  // Replace, not nest: the inner allocation was billed ONLY to the inner
  // tally.
  EXPECT_LT(outer.bytes, static_cast<std::int64_t>(2048 * 8));
  // Outside any scope the hook is inert.
  EXPECT_EQ(tls_alloc_tally, nullptr);
}

}  // namespace
}  // namespace blunt::obs
