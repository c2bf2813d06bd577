// Basic adversaries usable with World::run. Richer strategies (the crafted
// Figure-1 adversary, adversary families for ABD^k, the exhaustive replay
// explorer) live in src/adversary.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::sim {

/// Always picks the first enabled event. Deterministic; useful as a smoke
/// scheduler and as the replay fallback.
class FirstEnabledAdversary final : public Adversary {
 public:
  std::size_t choose(const World&, const EnabledView&) override { return 0; }
};

/// Picks uniformly at random among enabled events from its own seeded PRNG
/// (independent of the program's coins). Drives Monte-Carlo soaks; note a
/// uniformly random scheduler is fair with probability 1, so quorum-based
/// protocols terminate under it.
class UniformAdversary final : public Adversary {
 public:
  explicit UniformAdversary(std::uint64_t seed) : rng_(seed) {}

  std::size_t choose(const World&, const EnabledView& enabled) override {
    std::uniform_int_distribution<std::size_t> dist(0, enabled.size() - 1);
    return dist(rng_);
  }

 private:
  Mt19937_64 rng_;
};

/// Replays a scripted sequence of event indices, then falls back to index 0.
/// With a fixed coin script this reproduces an execution exactly — the
/// foundation of the exhaustive explorer.
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(std::vector<std::size_t> script)
      : script_(std::move(script)) {}

  std::size_t choose(const World&, const EnabledView& enabled) override {
    if (pos_ < script_.size()) {
      const std::size_t idx = script_[pos_++];
      BLUNT_ASSERT(idx < enabled.size(),
                   "replay script index " << idx << " out of "
                                          << enabled.size());
      return idx;
    }
    ++overflow_steps_;
    return 0;
  }

  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] int overflow_steps() const { return overflow_steps_; }

 private:
  std::vector<std::size_t> script_;
  std::size_t pos_ = 0;
  int overflow_steps_ = 0;
};

/// Round-robin over processes: prefers resuming process (last + 1) mod n,
/// else the first enabled event. Gives interleavings different from
/// FirstEnabled while staying deterministic.
class RoundRobinAdversary final : public Adversary {
 public:
  std::size_t choose(const World& w, const EnabledView& enabled) override {
    const int n = w.process_count();
    for (int offset = 1; offset <= n; ++offset) {
      const Pid want = (last_ + offset) % n;
      std::size_t i = 0;
      for (const Event& e : enabled) {
        if (e.pid == want) {
          last_ = want;
          return i;
        }
        ++i;
      }
    }
    return 0;
  }

 private:
  Pid last_ = -1;
};

}  // namespace blunt::sim
