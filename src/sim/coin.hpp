// Coin sources: where all randomness in a simulation comes from.
//
// Section 2.3 of the paper models randomness as `random(V)` instructions that
// sample uniformly from a finite set. Every random step in the simulator
// draws from a CoinSource injected into the World, so an execution is a pure
// function of (coin sequence, adversary choice sequence) — the determinism
// the replay explorer (src/adversary) and all tests depend on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/assert.hpp"

namespace blunt::sim {

/// std::mt19937_64, word for word, with its 312-word twist spread over the
/// draws: each draw twists the one word it returns, so building one and
/// drawing a few times costs the seeding alone. The batch twist updates
/// words in index order, each from itself, its successor and the word 156
/// places on, so at any word's turn the same words have been updated in
/// both orders. The same result_type, min() and max() make
/// std::uniform_int_distribution draw from it exactly as from the standard
/// engine.
class Mt19937_64 {
 public:
  using result_type = std::uint_fast64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = 5489u) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    const std::size_t i = i_;
    const std::size_t next = i + 1 == kN ? 0 : i + 1;
    const std::size_t far = i < kN - kM ? i + kM : i + kM - kN;
    const std::uint64_t y =
        (x_[i] & ~kLowerMask) | (x_[next] & kLowerMask);
    // -(y & 1) is all ones exactly when the low bit is set: no branch.
    std::uint64_t z =
        x_[far] ^ (y >> 1) ^ (-(y & 1) & 0xB5026F5AA96619E9ULL);
    x_[i] = z;
    i_ = next;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kLowerMask = (std::uint64_t{1} << 31) - 1;

  std::array<std::uint64_t, kN> x_;
  std::size_t i_ = 0;
};

/// Produces uniform samples in [0, n). Implementations must be deterministic
/// given their construction parameters.
class CoinSource {
 public:
  virtual ~CoinSource() = default;

  /// Next uniform sample in [0, n), n >= 1.
  virtual int next(int n) = 0;
};

/// PRNG-backed coins (Monte-Carlo runs).
class SeededCoin final : public CoinSource {
 public:
  explicit SeededCoin(std::uint64_t seed) : rng_(seed) {}

  int next(int n) override {
    BLUNT_ASSERT(n >= 1, "SeededCoin::next with n=" << n);
    std::uniform_int_distribution<int> dist(0, n - 1);
    return dist(rng_);
  }

 private:
  Mt19937_64 rng_;
};

/// A scripted coin sequence, used by exhaustive exploration: the explorer
/// enumerates all coin strings; when the script runs out, the source records
/// the demanded modulus and returns 0, letting the explorer extend the
/// script and branch. `exhausted_demand()` reports the modulus of the first
/// out-of-script draw (0 if none occurred).
class ScriptedCoin final : public CoinSource {
 public:
  ScriptedCoin() = default;
  explicit ScriptedCoin(std::vector<int> script) : script_(std::move(script)) {}

  int next(int n) override {
    BLUNT_ASSERT(n >= 1, "ScriptedCoin::next with n=" << n);
    if (pos_ < script_.size()) {
      const int v = script_[pos_++];
      BLUNT_ASSERT(v >= 0 && v < n,
                   "scripted coin " << v << " out of range [0," << n << ")");
      return v;
    }
    if (exhausted_demand_ == 0) exhausted_demand_ = n;
    ++overflow_draws_;
    return 0;
  }

  /// Number of scripted values consumed so far.
  [[nodiscard]] std::size_t consumed() const { return pos_; }

  /// Modulus of the first draw past the end of the script (0 = script
  /// sufficed).
  [[nodiscard]] int exhausted_demand() const { return exhausted_demand_; }

  /// Number of draws past the end of the script.
  [[nodiscard]] int overflow_draws() const { return overflow_draws_; }

 private:
  std::vector<int> script_;
  std::size_t pos_ = 0;
  int exhausted_demand_ = 0;
  int overflow_draws_ = 0;
};

}  // namespace blunt::sim
