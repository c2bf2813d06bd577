// Differential check of the incremental enabled-event index (DESIGN.md §14).
//
// Config::verify_enabled_index arms a per-scan oracle inside the World: after
// assembling the enabled list from the incremental index, the scheduler
// re-derives it with the pre-overhaul brute-force rescan (re-polling every
// wait predicate, re-enumerating every delivery source) and BLUNT_ASSERTs
// byte equality element by element. These tests drive that oracle through
// every index code path — resume-region replace/erase/insert, waits woken
// by wake_hint, pushed network changes, resend-token resyncs, partitions
// that hide and reveal held messages, crashes with messages held, a fault
// layer installed mid-run, and fault ticks — at both trace-detail
// levels, and additionally pin the flag-off run to the flag-on fingerprint
// (the oracle must observe, never perturb).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt {
namespace {

struct HashingAdversary final : sim::Adversary {
  explicit HashingAdversary(sim::Adversary& inner) : inner_(inner) {}
  std::size_t choose(const sim::World& w,
                     const sim::EnabledView& ev) override {
    const std::size_t c = inner_.choose(w, ev);
    widest_ = std::max(widest_, ev.size());
    for (const sim::Event& e : ev) {
      mix(static_cast<std::uint64_t>(static_cast<int>(e.kind)));
      mix(static_cast<std::uint64_t>(e.pid));
      mix(static_cast<std::uint64_t>(e.source_id));
      mix(static_cast<std::uint64_t>(e.msg_id));
      for (const char ch : e.what) mix(static_cast<unsigned char>(ch));
    }
    mix(c);
    return c;
  }
  void mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
  }
  sim::Adversary& inner_;
  std::uint64_t h_ = 1469598103934665603ULL;
  std::size_t widest_ = 0;  // the most events offered at one step
};

struct Outcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  std::uint64_t hash = 0;  // every offered event, content included
  int partitions_healed = 0;  // fault-plan runs: heals during the run
  std::size_t widest = 0;
};

/// Weakener over ABD^k: the headline workload. Quorum waits woken by
/// wake_hint, pushed network deltas, no faults.
Outcome run_weakener(int k, int n, std::uint64_t seed, sim::TraceDetail d,
                     bool verify, int max_steps = sim::Config{}.max_steps) {
  sim::World w(sim::Config{.max_steps = max_steps,
                           .metrics = false,
                           .trace_detail = d,
                           .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister r(
      "R", w,
      objects::AbdRegister::Options{.num_processes = n,
                                    .preamble_iterations = k});
  objects::AbdRegister c(
      "C", w,
      objects::AbdRegister::Options{.num_processes = n,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = k});
  programs::WeakenerOutcome out;
  programs::install_weakener(w, r, c, out);
  // Replicas beyond the three weakener pids exist as no-op filler processes,
  // exactly as the scaling probe builds its worlds: every ABD server pid
  // must be a World process.
  for (Pid pid = 3; pid < n; ++pid) {
    w.add_process(std::string("s").append(std::to_string(pid)),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  sim::UniformAdversary uni(seed * 31 + 7);
  HashingAdversary adv(uni);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_, 0, adv.widest_};
}

/// Chaos world: fault plan (crashes, partitions, loss, duplication, ticks)
/// and retransmission tokens (a source that resyncs on every token change),
/// with the fault layer set before the first step.
Outcome run_chaos_plan(const fault::FaultPlan& plan, std::uint64_t seed,
                       int k, sim::TraceDetail d, bool verify) {
  sim::World w(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = false,
                  .trace_detail = d,
                  .verify_enabled_index = verify},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg(
      "R", w,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = 6});
  fault::FaultInjector injector(plan, w);
  reg.set_fault_layer(&injector);
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    w.add_process(std::string("p").append(std::to_string(pid)),
                  [&reg, pid](sim::Proc p) -> sim::Task<void> {
                    co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                    (void)co_await reg.read(p);
                  });
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 7 + 3);
  fault::ChaosAdversary chaos(uniform, injector.plan(), &injector);
  HashingAdversary adv(chaos);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_, injector.partitions_healed()};
}

Outcome run_chaos(std::uint64_t seed, int k, sim::TraceDetail d,
                  bool verify) {
  return run_chaos_plan(
      fault::random_plan(
          fault::mix64(seed * 2 + static_cast<std::uint64_t>(k)), {}),
      seed, k, d, verify);
}

constexpr sim::TraceDetail kLevels[] = {sim::TraceDetail::kFull,
                                        sim::TraceDetail::kNone};

TEST(EnabledIndex, WeakenerMatchesRescanOracleAtEveryDetailLevel) {
  for (const int k : {1, 2}) {
    const Outcome off =
        run_weakener(k, 3, 5 + static_cast<std::uint64_t>(k),
                     sim::TraceDetail::kFull, /*verify=*/false);
    EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
    for (const sim::TraceDetail d : kLevels) {
      // The oracle asserts inside every scan; surviving the run IS the
      // differential check. The fingerprint equality then pins the oracle
      // to pure observation.
      const Outcome on = run_weakener(k, 3, 5 + static_cast<std::uint64_t>(k),
                                      d, /*verify=*/true);
      EXPECT_EQ(on.status, off.status);
      EXPECT_EQ(on.steps, off.steps);
      if (d == sim::TraceDetail::kFull) {
        EXPECT_EQ(on.hash, off.hash);
      }
    }
  }
}

TEST(EnabledIndex, WideWorldMatchesRescanOracle) {
  // n = 96 and 160: one broadcast puts more than a chunk's worth
  // (EventChunks::kChunkSize) of deliverables into a network's cache, so
  // erases land in every chunk position and emptied chunks are recycled.
  for (const int n : {96, 160}) {
    const Outcome off =
        run_weakener(2, n, 41, sim::TraceDetail::kFull, /*verify=*/false);
    EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
    for (const sim::TraceDetail d :
         {sim::TraceDetail::kFull, sim::TraceDetail::kNone}) {
      const Outcome on = run_weakener(2, n, 41, d, /*verify=*/true);
      EXPECT_EQ(on.status, off.status) << "n=" << n;
      EXPECT_EQ(on.steps, off.steps) << "n=" << n;
      if (d == sim::TraceDetail::kFull) {
        EXPECT_EQ(on.hash, off.hash) << "n=" << n;
      }
    }
  }
}

/// Checks every way of reading `view` against the rescan oracle: range-for,
/// operator[], to_vector(), and the crash-free view with its index mapping.
void expect_view_matches_rescan(const sim::World& w,
                                const sim::EnabledView& view) {
  const std::vector<sim::Event> oracle = w.enabled_events_rescan();
  ASSERT_EQ(view.size(), oracle.size());
  std::size_t i = 0;
  for (const sim::Event& e : view) {
    ASSERT_LT(i, oracle.size());
    EXPECT_EQ(e, oracle[i]) << "range-for index " << i;
    EXPECT_EQ(view[i], oracle[i]) << "operator[] index " << i;
    ++i;
  }
  EXPECT_EQ(i, oracle.size());
  EXPECT_EQ(view.to_vector(), oracle);
  std::vector<sim::Event> no_crash;
  for (const sim::Event& e : oracle) {
    if (e.kind != sim::Event::Kind::kCrash) no_crash.push_back(e);
  }
  const sim::EnabledView rest = view.without_crashes();
  EXPECT_EQ(rest.to_vector(), no_crash);
  for (std::size_t j = 0; j < rest.size(); ++j) {
    EXPECT_EQ(view[view.with_crashes_index(j)], rest[j]) << "index " << j;
  }
}

TEST(EnabledIndex, ViewMatchesRescanElementByElement) {
  // A wide world mid-run: each network's cache spans several chunks with
  // holes left by earlier deliveries, and a crash segment sits before the
  // end (max_crashes = 1; ChaosAdversary with no planned crash hides it).
  constexpr int kN = 160;
  sim::World w(sim::Config{.max_crashes = 1},
               std::make_unique<sim::SeededCoin>(3));
  objects::AbdRegister r(
      "R", w,
      objects::AbdRegister::Options{.num_processes = kN,
                                    .preamble_iterations = 2});
  objects::AbdRegister c(
      "C", w,
      objects::AbdRegister::Options{.num_processes = kN,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = 2});
  programs::WeakenerOutcome out;
  programs::install_weakener(w, r, c, out);
  for (Pid pid = 3; pid < kN; ++pid) {
    w.add_process(std::string("s").append(std::to_string(pid)),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  fault::FaultPlan no_crashes;
  no_crashes.num_processes = kN;
  sim::UniformAdversary uniform(5);
  fault::ChaosAdversary adv(uniform, no_crashes);
  std::size_t widest = 0;
  int checks = 0;
  for (int step = 0; step < 4000 && !w.finished(); ++step) {
    const sim::EnabledView view = w.enabled_events();
    widest = std::max(widest, view.size());
    if (step % 97 == 0) {
      expect_view_matches_rescan(w, view);
      ++checks;
    }
    w.execute(view[adv.choose(w, view)]);
  }
  EXPECT_GE(checks, 20);
  EXPECT_GT(widest, 2 * sim::EventChunks::kChunkSize);

  // The fault tick follows the crash block, so the crash-free view shifts
  // it: a partition that is still to heal keeps the tick offered.
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.partitions.push_back({/*side_mask=*/0b010, /*open=*/0, /*heal=*/50});
  sim::World small(sim::Config{.max_crashes = 2},
                   std::make_unique<sim::SeededCoin>(1));
  fault::FaultInjector injector(plan, small);
  for (Pid pid = 0; pid < 3; ++pid) {
    small.add_process(std::string("p").append(std::to_string(pid)),
                      [](sim::Proc p) -> sim::Task<void> {
                        co_await p.yield(sim::StepKind::kLocal, "x");
                      });
  }
  const sim::EnabledView view = small.enabled_events();
  ASSERT_EQ(view.size(), 3u + 3u + 1u);  // resumes, crashes, tick
  EXPECT_EQ(view[6].kind, sim::Event::Kind::kTick);
  expect_view_matches_rescan(small, view);
  EXPECT_EQ(view.with_crashes_index(3), 6u);
}

TEST(EnabledIndex, ThousandWideWorldMatchesRescanOracle) {
  // n = 1024, the width of perfbench's wide_n and n_sweep's widest group:
  // over the first few thousand steps each network's cache holds over a
  // thousand deliverables in dozens of chunks, most of them part-drained,
  // so lookups and erases land deep in the chunk table.
  constexpr int kSteps = 3200;
  const Outcome off = run_weakener(2, 1024, 8, sim::TraceDetail::kNone,
                                   /*verify=*/false, kSteps);
  const Outcome on = run_weakener(2, 1024, 8, sim::TraceDetail::kNone,
                                  /*verify=*/true, kSteps);
  EXPECT_EQ(off.status, sim::RunStatus::kStepBudgetExhausted);
  EXPECT_EQ(on.status, off.status);
  EXPECT_EQ(on.steps, kSteps);
  EXPECT_EQ(on.hash, off.hash);
  EXPECT_GT(on.widest, 16 * sim::EventChunks::kChunkSize);
}

/// The expected label of message `id` in the EventChunks test below.
std::string chunk_label(int id) {
  std::string label = "m";
  label += std::to_string(id);
  return label;
}

/// Checks every element of `chunks` against `ref`, through the chunk
/// cursor and through operator[].
void expect_chunks_equal(const sim::EventChunks& chunks,
                         const std::vector<sim::Event>& ref,
                         bool summaries) {
  ASSERT_EQ(chunks.size(), ref.size());
  std::size_t i = 0;
  for (std::size_t c = 0; c < chunks.chunk_count(); ++c) {
    // Only the last chunk may be empty.
    if (c + 1 < chunks.chunk_count()) {
      ASSERT_GT(chunks.chunk_size(c), 0u);
    }
    for (std::size_t j = 0; j < chunks.chunk_size(c); ++j, ++i) {
      ASSERT_LT(i, ref.size());
      const sim::Event& e = chunks.chunk_data(c)[j];
      ASSERT_EQ(e.msg_id, ref[i].msg_id) << "chunk " << c << " slot " << j;
      if (summaries) {
        ASSERT_EQ(e.what, chunk_label(e.msg_id));
      }
    }
  }
  ASSERT_EQ(i, ref.size());
  for (std::size_t k = 0; k < ref.size(); k += 7) {
    ASSERT_EQ(chunks[k].msg_id, ref[k].msg_id) << "index " << k;
  }
}

TEST(EventChunks, MatchesSortedVectorUnderSeededOperations) {
  // A differential run against a plain msg_id-sorted vector: ascending
  // appends in broadcast-sized bursts, erases at random positions (right
  // after an operator[] of the same event, and with no lookup at all),
  // operator[] at random indices, and clear() with chunk recycling. Round 0
  // fills past 200 chunks, drains to half and clears; round 1 refills from
  // the recycled chunks and drains to empty, so chunks empty and leave the
  // table at every position.
  constexpr std::size_t kHigh = 13000;
  for (const bool summaries : {false, true}) {
    SCOPED_TRACE(summaries ? "with summaries" : "without summaries");
    sim::EventChunks chunks;
    std::vector<sim::Event> ref;
    std::mt19937_64 rng(summaries ? 2 : 1);
    const auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    int next_id = 0;
    int ops = 0;
    int hinted_erases = 0;
    int blind_erases = 0;
    std::size_t max_chunks = 0;
    for (int round = 0; round < 2; ++round) {
      const std::size_t drain_to = round == 0 ? kHigh / 2 : 0;
      bool filling = true;
      for (;; ++ops) {
        if (filling && ref.size() >= kHigh) filling = false;
        if (!filling && ref.size() <= drain_to) break;
        const std::size_t r = below(1000);
        if (r < (filling ? 100u : 3u)) {
          const std::size_t burst = 1 + below(128);
          for (std::size_t b = 0; b < burst; ++b) {
            next_id += 1 + static_cast<int>(below(3));
            const sim::Event e{sim::Event::Kind::kDeliver, next_id % 7, 0,
                               next_id, {}};
            chunks.push_back(e, summaries ? std::make_unique<std::string>(
                                                chunk_label(next_id))
                                          : nullptr);
            ref.push_back(e);
          }
        } else if (r < 700 && !ref.empty()) {
          const std::size_t i = below(ref.size());
          if (r < 400) {
            const sim::Event& e = chunks[i];
            ASSERT_EQ(e.msg_id, ref[i].msg_id) << "op " << ops;
            chunks.erase(e.msg_id);
            ++hinted_erases;
          } else {
            chunks.erase(ref[i].msg_id);
            ++blind_erases;
          }
          ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (!ref.empty()) {
          const std::size_t i = below(ref.size());
          const sim::Event& e = chunks[i];
          ASSERT_EQ(e.msg_id, ref[i].msg_id) << "op " << ops;
          if (summaries) {
            ASSERT_EQ(e.what, chunk_label(e.msg_id));
          }
        }
        max_chunks = std::max(max_chunks, chunks.chunk_count());
        if (ops % 997 == 0) {
          ASSERT_NO_FATAL_FAILURE(expect_chunks_equal(chunks, ref, summaries))
              << "op " << ops;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_chunks_equal(chunks, ref, summaries));
      if (round == 0) {
        chunks.clear();
        ref.clear();
        ASSERT_NO_FATAL_FAILURE(expect_chunks_equal(chunks, ref, summaries));
        // A cleared cache is refilled from the source's lowest live id.
        next_id = static_cast<int>(below(1000));
      }
    }
    EXPECT_GE(ops, 20000);
    EXPECT_GE(max_chunks, 200u);
    EXPECT_GE(hinted_erases, 5000);
    EXPECT_GE(blind_erases, 5000);
  }
}

TEST(EnabledIndex, WiderQuorumsMatchRescanOracle) {
  // n = 8 replicas: multi-word-free but multi-majority bitsets, many
  // blocked waiters parked at once.
  const Outcome off = run_weakener(2, 8, 77, sim::TraceDetail::kNone,
                                   /*verify=*/false);
  const Outcome on = run_weakener(2, 8, 77, sim::TraceDetail::kNone,
                                  /*verify=*/true);
  EXPECT_EQ(on.status, off.status);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.hash, off.hash);
}

TEST(EnabledIndex, ChaosMatchesRescanOracleAtEveryDetailLevel) {
  for (const std::uint64_t seed : {11ULL, 21ULL, 33ULL}) {
    for (const int k : {1, 2}) {
      const Outcome off =
          run_chaos(seed, k, sim::TraceDetail::kFull, /*verify=*/false);
      for (const sim::TraceDetail d : kLevels) {
        const Outcome on = run_chaos(seed, k, d, /*verify=*/true);
        EXPECT_EQ(on.status, off.status);
        EXPECT_EQ(on.steps, off.steps);
        if (d == sim::TraceDetail::kFull) {
          EXPECT_EQ(on.hash, off.hash);
        }
      }
    }
  }
}

TEST(EnabledIndex, ShortHorizonPartitionsMatchRescanOracle) {
  // random_plan's default 4000-step horizon mostly places partitions after
  // a chaos ABD run (a few hundred steps) has finished. Short horizons open
  // and heal them mid-run, while messages are in flight: the World must
  // resync every source on each open and heal.
  int runs_with_heal = 0;
  for (const int n : {3, 5}) {
    for (const int k : {1, 2}) {
      for (const int horizon : {60, 150, 300}) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
          const fault::PlanOptions opts{.num_processes = n,
                                        .horizon_steps = horizon,
                                        .min_partition_len = 10,
                                        .max_partition_len = horizon};
          const fault::FaultPlan plan = fault::random_plan(
              fault::mix64(seed * 977 + static_cast<std::uint64_t>(
                                            horizon * 10 + n * 2 + k)),
              opts);
          const Outcome off = run_chaos_plan(plan, seed, k,
                                             sim::TraceDetail::kFull,
                                             /*verify=*/false);
          for (const sim::TraceDetail d :
               {sim::TraceDetail::kFull, sim::TraceDetail::kNone}) {
            const Outcome on = run_chaos_plan(plan, seed, k, d,
                                              /*verify=*/true);
            EXPECT_EQ(on.status, off.status) << plan.to_string();
            EXPECT_EQ(on.steps, off.steps) << plan.to_string();
            if (d == sim::TraceDetail::kFull) {
              EXPECT_EQ(on.hash, off.hash) << plan.to_string();
            }
          }
          if (off.partitions_healed > 0) ++runs_with_heal;
        }
      }
    }
  }
  // The sweep must actually reach the path it exists for.
  EXPECT_GE(runs_with_heal, 10);
}

struct Note {
  int tag = 0;
  [[nodiscard]] std::string summary() const {
    return "note" + std::to_string(tag);
  }
};

/// Held-message crash world: a partition isolates p1 from step 1 to
/// `heal`; p0 sends p1 a note that the partition holds, p1 sends itself a
/// deliverable note and p2 a held one, then blocks. The plan crashes p1 at
/// step 6, while one note to it is held and one is deliverable; after the
/// heal, p2 receives the note the crashed p1 sent before dying.
Outcome run_held_crash(int heal, sim::TraceDetail d, bool verify) {
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.partitions.push_back({/*side_mask=*/0b010, /*open=*/0, heal});
  plan.crashes.push_back({/*at_step=*/6, /*pid=*/1});
  sim::World w(sim::Config{.max_crashes = 1,
                           .trace_detail = d,
                           .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(1));
  fault::FaultInjector injector(plan, w);
  net::Network<Note> net("N", 3, &w.trace_mutable());
  std::vector<int> got(3, 0);
  for (Pid pid = 0; pid < 3; ++pid) {
    net.set_handler(pid, [&got, &w](Pid to, Pid, const Note&) {
      ++got[to];
      w.wake_hint(to);
    });
  }
  w.attach(net);
  net.set_fault_layer(&injector);
  w.add_process("p0", [&net](sim::Proc p) -> sim::Task<void> {
    co_await p.yield(sim::StepKind::kSend, "to-p1");
    net.send(p.pid(), 1, {1});
  });
  w.add_process("p1", [&net, &got](sim::Proc p) -> sim::Task<void> {
    co_await p.yield(sim::StepKind::kSend, "to-self");
    net.send(p.pid(), 1, {2});
    co_await p.yield(sim::StepKind::kSend, "to-p2");
    net.send(p.pid(), 2, {3});
    co_await p.wait_until([&got] { return got[1] == 2; }, "both-notes");
  });
  w.add_process("p2", [&got](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&got] { return got[2] == 1; }, "note-from-p1");
  });
  sim::FirstEnabledAdversary first;
  fault::ChaosAdversary chaos(first, injector.plan(), &injector);
  HashingAdversary adv(chaos);
  const sim::RunResult res = w.run(adv);
  EXPECT_TRUE(w.crashed(1));
  EXPECT_EQ(got[1], 0);  // neither note reached p1 before it crashed
  EXPECT_EQ(got[2], 1);  // the held note of the crashed sender survived
  EXPECT_EQ(net.in_transit_count(), 0);
  EXPECT_EQ(injector.partitions_healed(), 1);
  return {res.status, res.steps, adv.h_, injector.partitions_healed()};
}

TEST(EnabledIndex, CrashWhileMessageHeldMatchesRescanOracle) {
  for (const int heal : {8, 20}) {
    const Outcome off =
        run_held_crash(heal, sim::TraceDetail::kFull, /*verify=*/false);
    EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
    for (const sim::TraceDetail d : kLevels) {
      const Outcome on = run_held_crash(heal, d, /*verify=*/true);
      EXPECT_EQ(on.status, off.status);
      EXPECT_EQ(on.steps, off.steps);
      if (d == sim::TraceDetail::kFull) {
        EXPECT_EQ(on.hash, off.hash);
      }
    }
  }
}

/// Severs the ordered channel from -> to for as long as it is installed.
/// Its answer never changes, so only installing and removing it moves
/// messages in or out of the enabled set.
class SeverChannel final : public sim::FaultLayer {
 public:
  SeverChannel(Pid from, Pid to) : from_(from), to_(to) {}
  sim::SendFate on_send(const std::string&, Pid, Pid) override { return {}; }
  [[nodiscard]] bool channel_blocked(Pid from, Pid to) const override {
    return from == from_ && to == to_;
  }
  bool on_step(sim::World&) override { return false; }
  [[nodiscard]] bool tick_pending(const sim::World&) const override {
    return false;
  }

 private:
  Pid from_;
  Pid to_;
};

/// p0 sends p1 and p2 a note each, installs a layer severing p0 -> p1 on
/// the attached network (hiding the first note if still in transit), sends
/// p1 a second note under it, then removes the layer (revealing both).
Outcome run_late_layer(std::uint64_t seed, sim::TraceDetail d, bool verify) {
  sim::World w(sim::Config{.trace_detail = d, .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(seed));
  net::Network<Note> net("N", 3, &w.trace_mutable());
  std::vector<int> got(3, 0);
  for (Pid pid = 0; pid < 3; ++pid) {
    net.set_handler(pid, [&got, &w](Pid to, Pid, const Note&) {
      ++got[to];
      w.wake_hint(to);
    });
  }
  w.attach(net);
  SeverChannel sever(0, 1);
  w.add_process("p0", [&net, &sever](sim::Proc p) -> sim::Task<void> {
    co_await p.yield(sim::StepKind::kSend, "notes");
    net.send(p.pid(), 1, {1});
    net.send(p.pid(), 2, {2});
    co_await p.yield(sim::StepKind::kLocal, "sever");
    net.set_fault_layer(&sever);
    co_await p.yield(sim::StepKind::kSend, "severed-note");
    net.send(p.pid(), 1, {3});
    co_await p.yield(sim::StepKind::kLocal, "restore");
    net.set_fault_layer(nullptr);
  });
  w.add_process("p1", [&got](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&got] { return got[1] == 2; }, "two-notes");
  });
  w.add_process("p2", [&got](sim::Proc p) -> sim::Task<void> {
    co_await p.wait_until([&got] { return got[2] == 1; }, "one-note");
  });
  sim::UniformAdversary uniform(seed);
  HashingAdversary adv(uniform);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_};
}

TEST(EnabledIndex, FaultLayerInstalledMidRunMatchesRescanOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Outcome off =
        run_late_layer(seed, sim::TraceDetail::kFull, /*verify=*/false);
    EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
    for (const sim::TraceDetail d : kLevels) {
      const Outcome on = run_late_layer(seed, d, /*verify=*/true);
      EXPECT_EQ(on.status, off.status);
      EXPECT_EQ(on.steps, off.steps);
      if (d == sim::TraceDetail::kFull) {
        EXPECT_EQ(on.hash, off.hash);
      }
    }
  }
}

TEST(EnabledIndex, PolledWaitsAndSignaledWaitsCoexist) {
  // One process blocks on a hand-rolled gate that the reader opens and
  // wakes, while ABD clients park quorum waits on the same scans.
  for (const bool verify : {false, true}) {
    sim::World w(sim::Config{.verify_enabled_index = verify},
                 std::make_unique<sim::SeededCoin>(3));
    objects::AbdRegister reg(
        "R", w, objects::AbdRegister::Options{.num_processes = 3});
    bool release = false;
    w.add_process("writer", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, sim::Value(std::int64_t{42}));
    });
    w.add_process("gate", [&release](sim::Proc p) -> sim::Task<void> {
      co_await p.wait_until([&release] { return release; }, "gate-open");
      co_return;
    });
    w.add_process("reader",
                  [&reg, &release](sim::Proc p) -> sim::Task<void> {
                    (void)co_await reg.read(p);
                    release = true;
                    p.world().wake_hint(1);
                  });
    sim::UniformAdversary adv(99);
    const sim::RunResult res = w.run(adv);
    EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  }
}

}  // namespace
}  // namespace blunt
