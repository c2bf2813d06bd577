// Greybox schedule/coin fuzzer over the deterministic simulator.
//
// The fuzzer runs independent CHAINS. A chain is one self-contained search
// keyed by a single 64-bit seed: one recorded uniform seed run, then a
// feedback-driven climb that mutates the recorded schedule (fuzz/mutate.hpp)
// and replays mutants through prefix-replay adversaries. Everything a chain
// does is a pure function of its options, so chains parallelize across
// experiment shards with no cross-talk and replay bit-identically on a rerun.
//
// Two fuzz targets, both with planted, independently-validated ground truth:
//
//   * abd_bug — the planted AbdBug::kSubMajorityQuorum (a buggy ABD register
//     whose read quorum is one process short). Shape: n=5, one writer + four
//     single-shot readers, fault-free. The chain climbs a 5-point gradient
//     toward a stale read (write returned / late read / stale ⊥ reply
//     delivered mid-read / linearizability violation) and wins on a real
//     lin-check failure.
//   * figure1 — the paper's Figure 1 weakener (PAPER.md): an adversary that
//     keeps the strong-adversary program looping by answering the program
//     coin with schedule-dependent reads. Phase A climbs a 9-bit
//     prefix-qualification gradient to a state where BOTH coin outcomes are
//     winnable; Phase B forces each coin branch by coin scripting and
//     searches tail schedules until the branch loops. A chain "pairs" when
//     both branches loop from the same recorded prefix — the Figure 1
//     structure rediscovered from scratch.
//
// Feedback plumbing shared by both chains:
//   * a SeedPool of energy-weighted corpus seeds (score-dominant selection
//     with coverage-novelty boosts and pick-count aging);
//   * PR 6 coverage fingerprints (obs/fingerprint.hpp) as the novelty
//     oracle: a mutant whose schedule hash or n-gram set adds something new
//     may enter the pool even without a score improvement;
//   * every violation is pre-verified under adversary::EventReplayAdversary,
//     ddmin-shrunk under an eval budget, and emitted as a ViolationRecord
//     carrying a compilable scripted-adversary repro;
//   * prefix-replay deviations (descriptors skipped because the event they
//     named no longer exists) are counted as replay repairs — the
//     fuzz.replay_repair observability the malformed-schedule hardening
//     exposes.
//
// Monte-Carlo baseline arms (run_abd_bug_mc / run_figure1_mc) measure the
// same detectors under uniform random search so the experiment can gate the
// ≥10× discovery-cost advantage.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adversary/shrink.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/mutate.hpp"
#include "obs/coverage.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::fuzz {

/// splitmix64 finalizer — the chain's seed-derivation mixer (identical to
/// the experiment engine's, kept local so the library has no exp dependency).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Coin sources

/// Seeded coin that records every draw — the seed run uses it so the climb
/// can replay the exact coin sequence as a script.
class RecordingCoin final : public sim::CoinSource {
 public:
  explicit RecordingCoin(std::uint64_t seed) : rng_(seed) {}

  int next(int n) override {
    std::uniform_int_distribution<int> dist(0, n - 1);
    const int v = dist(rng_);
    draws_.push_back(v);
    return v;
  }

  [[nodiscard]] const std::vector<int>& draws() const { return draws_; }

 private:
  std::vector<int> draws_;
  std::mt19937_64 rng_;
};

/// Plays a scripted prefix (out-of-range values clamp to n-1), then falls
/// back to seeded uniform draws. The scripted prefix pins the coin sequence
/// of the recorded run; the seeded tail keeps mutated replays legal when
/// they consume more draws than the original.
class ScriptThenSeededCoin final : public sim::CoinSource {
 public:
  ScriptThenSeededCoin(std::vector<int> script, std::uint64_t tail_seed)
      : script_(std::move(script)), rng_(tail_seed) {}

  int next(int n) override {
    if (pos_ < script_.size()) {
      int v = script_[pos_++];
      if (v >= n) v = n - 1;
      return v;
    }
    std::uniform_int_distribution<int> dist(0, n - 1);
    return dist(rng_);
  }

 private:
  std::vector<int> script_;
  std::size_t pos_ = 0;
  std::mt19937_64 rng_;
};

// ---------------------------------------------------------------------------
// Prefix-replay adversaries — the mutant-tolerant replay layer

/// Replays a descriptor prefix (skip-unmatched, like EventReplayAdversary),
/// then extends with seeded uniform steps. skipped() counts the replay
/// repairs: descriptors that matched no enabled event and were dropped.
class PrefixThenUniform final : public sim::Adversary {
 public:
  PrefixThenUniform(const std::vector<adversary::EventDescriptor>& prefix,
                    std::uint64_t tail_seed)
      : prefix_(prefix), uni_(tail_seed) {}

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override {
    while (pos_ < prefix_.size()) {
      const auto& d = prefix_[pos_];
      std::size_t i = 0;
      for (const sim::Event& e : enabled) {
        if (adversary::matches(d, e)) {
          ++pos_;
          return i;
        }
        ++i;
      }
      ++pos_;
      ++skipped_;
    }
    return uni_.choose(w, enabled);
  }

  [[nodiscard]] long skipped() const { return skipped_; }

 private:
  const std::vector<adversary::EventDescriptor>& prefix_;
  std::size_t pos_ = 0;
  long skipped_ = 0;
  sim::UniformAdversary uni_;
};

/// Replays a descriptor prefix, then takes R-biased random steps: with
/// probability 3/4 choose among enabled "R "-message deliveries (including
/// resends), else any enabled event. The bias keeps the register protocol's
/// messages moving — the Figure-1 choreography lives in their order.
class PrefixThenBiased final : public sim::Adversary {
 public:
  PrefixThenBiased(const std::vector<adversary::EventDescriptor>& prefix,
                   std::uint64_t tail_seed)
      : prefix_(prefix), rng_(tail_seed) {}

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override;

  [[nodiscard]] long skipped() const { return skipped_; }

 private:
  const std::vector<adversary::EventDescriptor>& prefix_;
  std::size_t pos_ = 0;
  long skipped_ = 0;
  std::mt19937_64 rng_;
  std::vector<std::size_t> r_events_;  // scratch, reused across steps
};

/// Records the actually-chosen descriptor sequence of any inner adversary —
/// what a mutant REALLY did (after skips and tail extension) becomes the
/// next generation's replayable schedule.
class ScheduleRecorder final : public sim::Adversary {
 public:
  explicit ScheduleRecorder(sim::Adversary& inner) : inner_(inner) {}

  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& enabled) override {
    const std::size_t idx = inner_.choose(w, enabled);
    chosen_.push_back(adversary::describe(enabled[idx]));
    return idx;
  }

  [[nodiscard]] const std::vector<adversary::EventDescriptor>& chosen() const {
    return chosen_;
  }

 private:
  sim::Adversary& inner_;
  std::vector<adversary::EventDescriptor> chosen_;
};

/// FNV-1a content hash over the first `len` descriptors (kind, pid, source,
/// what). The Figure-1 pair oracle keys branch records by this prefix hash;
/// the MC baseline inserts it into per-coin CoverageMaps so "did uniform
/// search ever pair a prefix?" is a mergeable set-intersection question.
[[nodiscard]] std::uint64_t schedule_prefix_hash(
    const std::vector<adversary::EventDescriptor>& schedule, std::size_t len);

// ---------------------------------------------------------------------------
// SeedPool — energy-weighted corpus scheduling

/// A small pool of candidate seed schedules with energy-weighted selection.
///
/// Admission (offer): a mutant enters the pool when it beats the pool's best
/// score; ties enter only when coverage-novel; near-misses (best-1) enter
/// with probability 1/4 when coverage-novel. Eviction drops the lowest
/// (score, admission stamp) once capacity is exceeded.
///
/// Selection (pick): weight 8/4/2/1 by score deficit from the pool best,
/// doubled for coverage-novel entries, halved per previous pick (aging, so
/// the search drifts across equal-score plateau entries instead of hammering
/// one) — floor 1. All randomness comes from the caller's FuzzRng, so the
/// pool is as deterministic as the chain that owns it.
class SeedPool {
 public:
  explicit SeedPool(std::size_t capacity = 8) : capacity_(capacity) {}

  /// Returns true iff the schedule was admitted.
  bool offer(const std::vector<adversary::EventDescriptor>& schedule,
             int score, bool fresh_coverage, FuzzRng& rng);

  /// Energy-weighted selection; bumps the chosen entry's pick count.
  /// Returns a copy (pool mutations never invalidate the caller's base).
  /// Pool must be non-empty.
  [[nodiscard]] std::vector<adversary::EventDescriptor> pick(FuzzRng& rng);

  /// A uniformly random entry's schedule — splice-donor material. Returns an
  /// empty vector when the pool has fewer than two entries.
  [[nodiscard]] std::vector<adversary::EventDescriptor> donor(
      FuzzRng& rng) const;

  [[nodiscard]] int best_score() const;
  /// Highest-score entry (ties resolve to the most recently admitted).
  /// Pool must be non-empty.
  [[nodiscard]] const std::vector<adversary::EventDescriptor>& best_schedule()
      const;
  [[nodiscard]] std::size_t size() const { return seeds_.size(); }

 private:
  struct Seed {
    std::vector<adversary::EventDescriptor> schedule;
    int score = 0;
    bool fresh = false;
    int picks = 0;
    long stamp = 0;
  };

  [[nodiscard]] long weight(const Seed& s, int best) const;

  std::vector<Seed> seeds_;
  std::size_t capacity_;
  long stamps_ = 0;
};

// ---------------------------------------------------------------------------
// Fuzz chains

struct AbdChainOptions {
  std::uint64_t chain_seed = 0;
  int climb_rounds = 6000;
  /// ddmin eval budget per violation (0 = unbounded).
  long shrink_max_evals = 800;
  std::size_t pool_capacity = 8;
  /// Cap on corpus entries recorded per chain (oldest dropped first).
  int max_corpus_entries = 16;
};

struct AbdChainResult {
  bool won = false;           // a linearizability violation was found
  int best_score = -1;        // gradient score reached (max 5)
  long execs = 0;             // simulator runs spent by the chain
  long execs_to_find = -1;    // execs at first violation (-1 = none)
  long replay_repairs = 0;    // prefix-replay skips + replay deviations
  obs::CoverageMap schedules, ngrams, objects;  // PR 6 novelty sets
  std::vector<CorpusEntry> corpus;              // pool admissions
  std::vector<ViolationRecord> violations;      // pre-verified + shrunk
};

/// One abd_bug fuzz chain: uniform seed run, then a SeedPool-driven climb of
/// schedule mutants toward a stale read. Fault-free target, so a deadlock or
/// step-budget exhaustion is itself a violation (recorded once per chain).
[[nodiscard]] AbdChainResult run_abd_bug_chain(const AbdChainOptions& opts);

struct Figure1ChainOptions {
  /// First uniform seed tried; the chain scans forward until a run reaches
  /// the program coin (or attempts run out).
  std::uint64_t seed_start = 0;
  std::uint64_t seed_attempts = 10000;
  int phase_a_rounds = 6000;
  int phase_b_rounds0 = 8000;  // hard (coin=0) branch
  int phase_b_rounds1 = 2000;  // easy (coin=1) branch
  int phase_b_seed_tails = 50;
  long shrink_max_evals = 600;
  std::size_t pool_capacity = 8;
  int max_corpus_entries = 16;
};

struct Figure1ChainResult {
  bool qualified = false;     // Phase A reached the 9-bit gradient goal
  bool branch0 = false;       // coin=0 branch forced to loop
  bool branch1 = false;       // coin=1 branch forced to loop
  bool paired = false;        // both — Figure 1 rediscovered
  int phase_a_score = -1;     // out of 9
  int branch_end_score0 = -1;  // out of 9 (win bit counts 2)
  int branch_end_score1 = -1;  // out of 5
  long execs = 0;
  long replay_repairs = 0;
  std::uint64_t chain_seed = 0;    // the uniform seed that qualified
  int prefix_len = 0;              // shared prefix through the coin draw
  std::uint64_t prefix_hash = 0;
  obs::CoverageMap schedules, ngrams, objects;
  std::vector<CorpusEntry> corpus;
  std::vector<ViolationRecord> violations;  // kind "figure1_branch"
};

/// One Figure-1 fuzz chain (Phase A prefix qualification + per-branch Phase
/// B tail search). Non-completed replays are discarded, not recorded: under
/// truncated retransmit budgets a mangled replay legitimately deadlocks, so
/// non-termination is only a violation signal on the abd target.
[[nodiscard]] Figure1ChainResult run_figure1_chain(
    const Figure1ChainOptions& opts);

// ---------------------------------------------------------------------------
// Monte-Carlo baseline arms

struct AbdMcResult {
  long execs = 0;
  long violations = 0;
  long execs_to_first = -1;
  obs::CoverageMap schedules, ngrams, objects;
};

/// Uniform-adversary, seeded-coin Monte Carlo over the same abd_bug shape
/// and detector the fuzz chain uses.
[[nodiscard]] AbdMcResult run_abd_bug_mc(std::uint64_t seed, long trials);

struct Figure1McResult {
  long execs = 0;
  long loops = 0;    // runs where the weakener looped at all
  long loops0 = 0;   // ... with coin = 0
  long loops1 = 0;   // ... with coin = 1
  /// Prefix hashes (through the coin draw) of looping runs, split by coin
  /// value. A Figure-1 pair exists iff the two sets intersect — mergeable
  /// across shards, checkable in finalize.
  obs::CoverageMap loop0_prefixes, loop1_prefixes;
  obs::CoverageMap schedules, ngrams, objects;
};

/// Uniform Monte Carlo over the weakener shape with the pair oracle the
/// ≥10× gate needs: MC rediscovers Figure 1 only if two uniform runs loop on
/// BOTH coin values from the identical schedule prefix.
[[nodiscard]] Figure1McResult run_figure1_mc(std::uint64_t seed, long trials);

// ---------------------------------------------------------------------------
// Replay predicates (repro verification, tests)

struct AbdReplayOutcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  bool lin_ok = true;
  long repairs = 0;
};

/// Replays a recorded abd_bug schedule under EventReplayAdversary with the
/// given coin script + tail seed.
[[nodiscard]] AbdReplayOutcome replay_abd_bug(
    const std::vector<adversary::EventDescriptor>& schedule,
    const std::vector<int>& coin_script, std::uint64_t coin_tail_seed);

struct Figure1ReplayOutcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  bool looped = false;
  int coin = -1;
  long repairs = 0;
};

/// Replays a recorded figure1 schedule under EventReplayAdversary.
[[nodiscard]] Figure1ReplayOutcome replay_figure1(
    const std::vector<adversary::EventDescriptor>& schedule,
    const std::vector<int>& coin_script, std::uint64_t coin_tail_seed);

}  // namespace blunt::fuzz
