// sim::Mt19937_64 against the standard engine it stands in for: the same
// words from the same seeds, and so the same draws through
// std::uniform_int_distribution, which is how SeededCoin and
// UniformAdversary read it.
#include "sim/coin.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

#include "exp/seed.hpp"

namespace blunt::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {
    0,
    1,
    5489,
    std::numeric_limits<std::uint64_t>::max(),
    exp::derive_seed(exp::SeedDerivation::kSplitMix64, 1, 0),
    exp::derive_seed(exp::SeedDerivation::kSplitMix64, 1, 1),
    exp::derive_seed(exp::SeedDerivation::kSplitMix64, 7919, 12),
};

TEST(MersenneTwister64, MatchesTheStandardEngineWordForWord) {
  // 2,500 draws: eight full twists of the 312-word state and then some.
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Mt19937_64 rng(seed);
    for (int i = 0; i < 2500; ++i) {
      ASSERT_EQ(rng(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(MersenneTwister64, TenThousandthDefaultOutputIsTheStandardsValue) {
  // The check value [rand.predef] gives for std::mt19937_64.
  Mt19937_64 rng;
  for (int i = 1; i < 10000; ++i) (void)rng();
  EXPECT_EQ(rng(), 9981545732273789042ULL);
}

TEST(MersenneTwister64, UniformDistributionsDrawAsFromTheStandardEngine) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Mt19937_64 rng(seed);
    for (int i = 0; i < 3000; ++i) {
      const int n = 1 + i % 1500;
      std::uniform_int_distribution<int> a(0, n - 1);
      std::uniform_int_distribution<int> b(0, n - 1);
      ASSERT_EQ(a(rng), b(ref)) << "seed " << seed << " draw " << i;
      std::uniform_int_distribution<std::size_t> c(0, 2 * i + 1);
      std::uniform_int_distribution<std::size_t> d(0, 2 * i + 1);
      ASSERT_EQ(c(rng), d(ref)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(SeededCoin, DrawsTheStandardEnginesStream) {
  for (const std::uint64_t seed : kSeeds) {
    SeededCoin coin(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 2000; ++i) {
      const int n = 1 + i % 5;
      std::uniform_int_distribution<int> dist(0, n - 1);
      ASSERT_EQ(coin.next(n), dist(ref)) << "seed " << seed << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace blunt::sim
