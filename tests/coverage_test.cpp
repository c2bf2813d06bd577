// Execution-coverage building blocks (src/obs): the CoverageMap fingerprint
// set (insert/merge/serialize), the fixed-width hex rendering that keeps
// uint64 fingerprints exact through JSON (doubles lose bits above 2^53), and
// the ScheduleFingerprinter adversary wrapper — which must be
// choice-transparent: wrapping an adversary changes NOTHING about the
// execution.
#include "obs/coverage.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/workloads.hpp"
#include "obs/fingerprint.hpp"
#include "sim/adversaries.hpp"

namespace blunt::obs {
namespace {

TEST(FingerprintHex, RoundTripsExactly) {
  const std::uint64_t values[] = {
      0ULL,
      1ULL,
      0x10ULL,
      0xdeadbeefULL,
      // Above 2^53: these are exactly the values a JSON double round trip
      // would corrupt — the reason fingerprints serialize as hex strings.
      (1ULL << 53) + 1,
      0x9e3779b97f4a7c15ULL,
      0xffffffffffffffffULL,
  };
  for (const std::uint64_t v : values) {
    const std::string hex = fingerprint_to_hex(v);
    EXPECT_EQ(hex.size(), 16u) << hex;
    EXPECT_EQ(std::stoull(hex, nullptr, 16), v) << hex;
  }
  EXPECT_EQ(fingerprint_to_hex(0xffULL), "00000000000000ff");
  EXPECT_EQ(fingerprint_to_hex(0x9e3779b97f4a7c15ULL), "9e3779b97f4a7c15");
}

TEST(CoverageMap, InsertContainsSizeAndZeroKey) {
  CoverageMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.insert(42));
  EXPECT_FALSE(m.insert(42));  // duplicate
  EXPECT_TRUE(m.insert(0));    // the sentinel-slot key must work too
  EXPECT_FALSE(m.insert(0));
  EXPECT_TRUE(m.contains(42));
  EXPECT_TRUE(m.contains(0));
  EXPECT_FALSE(m.contains(43));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.empty());
}

TEST(CoverageMap, SurvivesGrowthWithManyKeys) {
  CoverageMap m;
  std::set<std::uint64_t> reference;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 4096;  // force collisions and duplicates
    EXPECT_EQ(m.insert(v), reference.insert(v).second);
  }
  EXPECT_EQ(m.size(), reference.size());
  for (const std::uint64_t v : reference) EXPECT_TRUE(m.contains(v));
  const std::vector<std::uint64_t> sorted = m.sorted();
  EXPECT_TRUE(std::equal(sorted.begin(), sorted.end(), reference.begin(),
                         reference.end()));
}

TEST(CoverageMap, MergeIsOrderInsensitive) {
  CoverageMap a, b;
  for (std::uint64_t v = 0; v < 500; v += 2) a.insert(v * 0x9e37ULL);
  for (std::uint64_t v = 0; v < 500; v += 3) b.insert(v * 0x9e37ULL);
  CoverageMap ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.size(), ba.size());
  EXPECT_EQ(ab.to_json().dump(), ba.to_json().dump());
}

TEST(CoverageMap, JsonRoundTripIsExact) {
  CoverageMap m;
  m.insert(0);
  m.insert((1ULL << 53) + 1);
  m.insert(0xffffffffffffffffULL);
  m.insert(7);
  // The canonical form is the sorted set as fixed-width hex strings, and it
  // survives the text round trip exactly, 2^53 + 1 included.
  const Json parsed = Json::parse(m.to_json().dump());
  std::vector<std::string> want;
  for (const std::uint64_t v : m.sorted()) {
    want.push_back(fingerprint_to_hex(v));
  }
  std::vector<std::string> back;
  for (const Json& v : parsed.as_array()) back.push_back(v.as_string());
  EXPECT_EQ(back, want);
  EXPECT_EQ(back.size(), m.size());
}

TEST(Accumulator, CoverageMergesAndRoundTripsThroughJson) {
  exp::Accumulator a, b;
  a.coverage("schedules").insert(1);
  a.coverage("schedules").insert(0xffffffffffffffffULL);
  a.tally("hit").add(true);
  b.coverage("schedules").insert(2);
  b.coverage("ngrams").insert(3);
  a.merge(b);
  EXPECT_EQ(a.coverage("schedules").size(), 3u);
  EXPECT_EQ(a.coverage("ngrams").size(), 1u);

  // The merged maps serialize as sorted hex and survive the text round trip.
  const Json j = a.to_json();
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
  EXPECT_EQ(j.at("coverage").at("schedules").dump(),
            R"(["0000000000000001","0000000000000002","ffffffffffffffff"])");
  EXPECT_EQ(j.at("coverage").at("ngrams").dump(), R"(["0000000000000003"])");
}

// -- ScheduleFingerprinter ---------------------------------------------------

struct WeakenerRun {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  int random_draws = 0;
  std::size_t invocations = 0;
  bool bad = false;
};

WeakenerRun run_weakener(std::uint64_t seed, bool fingerprint,
                         std::uint64_t* schedule_hash = nullptr,
                         CoverageMap* ngrams = nullptr) {
  adversary::McInstance inst =
      exp::make_abd_weakener(seed, /*k=*/2, exp::kWeakenerNumProcesses,
                             /*metrics=*/false, sim::TraceDetail::kNone);
  sim::UniformAdversary adv(seed * 31 + 5);
  WeakenerRun out;
  sim::RunResult res;
  if (fingerprint) {
    ScheduleFingerprinter fp(adv);
    res = inst.world->run(fp);
    if (schedule_hash != nullptr) *schedule_hash = fp.schedule_hash();
    if (ngrams != nullptr) *ngrams = fp.ngrams();
  } else {
    res = inst.world->run(adv);
  }
  out.status = res.status;
  out.steps = res.steps;
  out.random_draws = inst.world->random_draws();
  out.invocations = inst.world->invocations().size();
  out.bad = inst.bad();
  return out;
}

TEST(ScheduleFingerprinter, WrapperIsChoiceTransparent) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const WeakenerRun plain = run_weakener(seed, /*fingerprint=*/false);
    const WeakenerRun wrapped = run_weakener(seed, /*fingerprint=*/true);
    EXPECT_EQ(plain.status, wrapped.status) << "seed " << seed;
    EXPECT_EQ(plain.steps, wrapped.steps) << "seed " << seed;
    EXPECT_EQ(plain.random_draws, wrapped.random_draws) << "seed " << seed;
    EXPECT_EQ(plain.invocations, wrapped.invocations) << "seed " << seed;
    EXPECT_EQ(plain.bad, wrapped.bad) << "seed " << seed;
  }
}

TEST(ScheduleFingerprinter, HashesAreDeterministicAndSeedSensitive) {
  std::uint64_t h1a = 0, h1b = 0, h2 = 0;
  CoverageMap n1a, n1b;
  (void)run_weakener(11, true, &h1a, &n1a);
  (void)run_weakener(11, true, &h1b, &n1b);
  (void)run_weakener(12, true, &h2, nullptr);
  EXPECT_EQ(h1a, h1b);
  EXPECT_EQ(n1a.to_json().dump(), n1b.to_json().dump());
  EXPECT_NE(h1a, h2);  // different coin seed -> different schedule
  EXPECT_GT(n1a.size(), 0u);
}

TEST(ScheduleFingerprinter, ObjectFingerprintsAreDeterministic) {
  const auto run = [](std::uint64_t seed) {
    adversary::McInstance inst =
        exp::make_abd_weakener(seed, /*k=*/1, exp::kWeakenerNumProcesses,
                               /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(seed);
    (void)inst.world->run(adv);
    return object_transition_fingerprints(*inst.world);
  };
  const std::vector<std::uint64_t> a = run(5);
  const std::vector<std::uint64_t> b = run(5);
  const std::vector<std::uint64_t> c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace blunt::obs
