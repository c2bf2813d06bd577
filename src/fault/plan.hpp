// FaultPlan: a seeded, fully deterministic description of every fault an
// execution will suffer — message loss and duplication budgets per channel,
// partition intervals in scheduler-step time with guaranteed heal steps, and
// a scripted crash schedule.
//
// The paper's model (Section 2.1) assumes asynchronous but
// reliable-until-crash channels; a FaultPlan relaxes exactly that assumption
// while keeping the repo's determinism contract: given (coin script, event
// choices, plan) the execution — including every injected fault — replays
// byte-identically. Per-message decisions hash (plan seed, network name,
// channel, per-channel send index), never global state, so two networks or
// two channels never perturb each other's fault streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace blunt::fault {

/// SplitMix64 — the repo-wide deterministic hash for fault decisions.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string — platform-independent (std::hash is not).
[[nodiscard]] std::uint64_t hash_name(const std::string& s);

/// One partition interval: while active (open_step <= sched step <
/// heal_step), messages crossing between side A (bit set in side_mask) and
/// side B are held in transit — delayed, not lost — and become deliverable
/// at the heal step.
struct Partition {
  std::uint32_t side_mask = 0;
  int open_step = 0;
  int heal_step = 0;  // exclusive; generator guarantees heal_step > open_step

  /// True iff the partition separates `a` from `b`.
  [[nodiscard]] bool separates(Pid a, Pid b) const {
    return ((side_mask >> a) & 1u) != ((side_mask >> b) & 1u);
  }
};

/// One scripted crash: process `pid` crashes at the first scheduler step
/// >= at_step (executed by the ChaosAdversary as an ordinary kCrash event,
/// so crash schedules replay like any other schedule).
struct CrashAt {
  int at_step = 0;
  Pid pid = -1;
};

struct FaultPlan {
  std::uint64_t seed = 0;  // drives every per-message loss/dup decision
  int num_processes = 0;

  // Loss: while a channel's loss budget lasts, each send on it is lost with
  // probability loss_permille/1000 (deterministically, from the hash
  // stream). A finite budget makes loss bounded per channel, which is what
  // lets bounded retransmission guarantee liveness.
  std::uint32_t loss_permille = 0;
  int loss_budget_per_channel = 0;

  // Duplication: while the budget lasts, each (non-lost) send is enqueued
  // twice with probability dup_permille/1000.
  std::uint32_t dup_permille = 0;
  int dup_budget_per_channel = 0;

  std::vector<Partition> partitions;
  std::vector<CrashAt> crashes;  // sorted by at_step

  /// True iff the plan can never make a majority quorum unreachable forever:
  /// fewer than a majority of processes crash, and every partition heals.
  /// Under such a plan (with retransmission bounds above the loss budget)
  /// every ABD operation must terminate under a fair adversary.
  [[nodiscard]] bool quorum_preserving() const;

  /// Full structural validation: empty string iff the plan is well-formed
  /// AND quorum-preserving, else a human-readable reason. Checks, beyond
  /// quorum_preserving():
  ///   * num_processes >= 1 and <= 32 (side_mask width);
  ///   * loss/dup rates are probabilities (<= 1000 permille) with
  ///     non-negative budgets, and a positive rate has a positive budget;
  ///   * partitions are non-trivial bipartitions (both sides non-empty
  ///     within [0, num_processes)) with heal_step > open_step >= 0;
  ///   * crashes name distinct in-range pids at non-negative steps, sorted
  ///     by (at_step, pid), and fewer than a majority crash.
  /// The chaos soak accepts a plan only if validate() returns empty, so every
  /// plan that reaches an execution obeys the termination preconditions of
  /// Theorem 4.2's liveness argument.
  [[nodiscard]] std::string validate() const;

  [[nodiscard]] std::string to_string() const;
};

/// Knobs for random_plan. Defaults generate quorum-preserving plans for
/// n = 3: at most a minority crashes, partitions always heal inside the
/// horizon, and loss budgets stay below the soak's retransmission bound.
struct PlanOptions {
  int num_processes = 3;
  int horizon_steps = 4000;        // all partition/crash steps fall in here
  std::uint32_t max_loss_permille = 400;
  int max_loss_budget = 6;         // keep < AbdRegister max_retransmits
  std::uint32_t max_dup_permille = 400;
  int max_dup_budget = 8;
  int max_partitions = 2;
  int min_partition_len = 20;
  int max_partition_len = 600;
  int max_crashes = -1;            // -1 = minority: (num_processes - 1) / 2
};

/// Deterministic plan generator: same (seed, opts) — same plan, on every
/// platform. The chaos soak feeds it consecutive seeds.
[[nodiscard]] FaultPlan random_plan(std::uint64_t seed,
                                    const PlanOptions& opts = {});

}  // namespace blunt::fault
