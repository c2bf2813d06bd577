// Allocation discipline of the scheduler's hot path: coroutine frames come
// from a per-World pool (sim/task.hpp), and a weakener run at the paper's
// n = 3 allocates a bounded number of blocks however many phases and
// messages it executes.
//
// The counting operator new that bills the innermost obs::AllocScope lives
// in blunt_obs's profile-exporter translation unit (obs/prof_export.cpp).
// The pin prints a failing run's profile with obs::profile_to_json, which
// pulls that translation unit in; without it, a sanitizer build's own
// operator new satisfies the linker and every tally reads 0. Each
// allocation-counting test first checks that a known allocation is
// counted, so a missing hook fails instead of passing vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "exp/workloads.hpp"
#include "obs/prof.hpp"
#include "obs/prof_export.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/task.hpp"
#include "sim/world.hpp"

namespace blunt::sim {
namespace {

/// Fails unless the counting hook bills a known allocation.
void expect_hook_counts() {
  obs::AllocTally tally;
  {
    const obs::AllocScope scope(&tally);
    auto p = std::make_unique<std::vector<std::int64_t>>(256);
    p->back() = 1;
  }
  ASSERT_GE(tally.calls, 1) << "the operator-new counting hook is not linked";
  ASSERT_GE(tally.bytes, static_cast<std::int64_t>(256 * 8));
}

/// World::run's allocation tally (Config::profile must be on).
std::int64_t run_alloc_calls(const World& w) {
  return w.profiler()->snapshot().counter(obs::ProfCounter::kAllocCalls);
}

std::unique_ptr<World> profiled_world() {
  return std::make_unique<World>(
      Config{.trace_detail = TraceDetail::kNone, .profile = true},
      std::make_unique<SeededCoin>(1));
}

Task<int> leaf(Proc p, int v) {
  co_await p.yield(StepKind::kLocal, "leaf");
  co_return v;
}

/// Three frames per call: its own and two leaves, one after the other.
Task<int> op(Proc p) {
  const int a = co_await leaf(p, 1);
  const int b = co_await leaf(p, 2);
  co_return a + b;
}

Task<int> immediate(int v) { co_return v; }

/// A World with one process that calls op() `calls` times; returns the
/// allocations its run made.
std::int64_t alloc_calls_for_ops(int calls) {
  const std::unique_ptr<World> w = profiled_world();
  int sum = 0;
  w->add_process("p", [calls, &sum](Proc p) -> Task<void> {
    for (int i = 0; i < calls; ++i) sum += co_await op(p);
  });
  UniformAdversary adv(1);
  EXPECT_EQ(w->run(adv).status, RunStatus::kCompleted);
  EXPECT_EQ(sum, 3 * calls);
  return run_alloc_calls(*w);
}

TEST(FramePool, SecondIdenticalOperationAllocatesNoFrame) {
  ASSERT_NO_FATAL_FAILURE(expect_hook_counts());
  // The first call's frames come back to the World's pool as each returns;
  // the later calls take them from there.
  const std::int64_t once = alloc_calls_for_ops(1);
  EXPECT_EQ(alloc_calls_for_ops(2), once);
  EXPECT_EQ(alloc_calls_for_ops(5), once);
}

TEST(FramePool, FrameOutsideAnyWorldUsesTheGlobalAllocator) {
  ASSERT_NO_FATAL_FAILURE(expect_hook_counts());
  // A World that has run keeps cached blocks, but they are its own: frames
  // made outside every World still come from operator new, every time.
  const std::unique_ptr<World> w = profiled_world();
  w->add_process("p", [](Proc p) -> Task<void> { (void)co_await op(p); });
  UniformAdversary adv(1);
  ASSERT_EQ(w->run(adv).status, RunStatus::kCompleted);
  obs::AllocTally tally;
  {
    const obs::AllocScope scope(&tally);
    for (int i = 0; i < 3; ++i) {
      Task<int> t = immediate(i);
      t.handle().resume();
      EXPECT_EQ(t.result(), i);
    }
  }
  EXPECT_EQ(tally.calls, 3);
}

/// Counts live instances; one sits in each frame of deep().
struct Live {
  explicit Live(int& n) : n_(&n) { ++*n_; }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  ~Live() { --*n_; }
  int* n_;
};

Task<void> deep(Proc p, int depth, int& live) {
  const Live guard(live);
  if (depth == 0) {
    co_await p.yield(StepKind::kLocal, "bottom");
    co_await p.yield(StepKind::kLocal, "never reached");
  } else {
    co_await deep(p, depth - 1, live);
  }
}

TEST(FramePool, DestroyingAWorldWithSuspendedProcessesReturnsEveryFrame) {
  // Each process parks at the bottom of a five-frame chain. Destroying the
  // World destroys every chain while the pool is still alive (it is
  // declared before the slots), and the pool checks on destruction that
  // every block it handed out came back.
  int live = 0;
  {
    const std::unique_ptr<World> w = profiled_world();
    for (int i = 0; i < 3; ++i) {
      w->add_process("deep", [&live](Proc p) -> Task<void> {
        co_await deep(p, 4, live);
      });
    }
    // Start each process and run it to its first park at the bottom.
    for (Pid pid = 0; pid < 3; ++pid) {
      w->execute({Event::Kind::kResume, pid, -1, -1, "start"});
    }
    EXPECT_EQ(live, 15);
    EXPECT_FALSE(w->finished());
  }
  EXPECT_EQ(live, 0);
}

TEST(FramePoolDeathTest, FrameOutlivingItsWorldAborts) {
  // A frame made inside a World's process belongs to that World's pool;
  // letting it outlive the World is a lifetime bug the pool reports.
  EXPECT_DEATH(
      {
        Task<int> escaped;
        {
          const std::unique_ptr<World> w = profiled_world();
          w->add_process("p", [&escaped](Proc) -> Task<void> {
            escaped = immediate(1);
            co_return;
          });
          UniformAdversary adv(1);
          (void)w->run(adv);
        }
      },
      "outlived its World");
}

// -- The allocation pin ------------------------------------------------------

/// One profiled ABD^k weakener run at n = 3: World::run's allocation
/// count, the run's outcome and its whole profile.
struct PinRun {
  std::int64_t alloc_calls = 0;
  int steps = 0;
  bool bad = false;
  obs::ProfileSnapshot profile;
};

PinRun pin_run(std::uint64_t seed, int k) {
  adversary::McInstance inst =
      exp::make_abd_weakener(seed, k, exp::kWeakenerNumProcesses,
                             /*metrics=*/false, TraceDetail::kNone,
                             /*profile=*/true);
  UniformAdversary adv(seed ^ 0x9e3779b97f4a7c15ULL);
  const RunResult res = inst.world->run(adv);
  EXPECT_EQ(res.status, RunStatus::kCompleted) << "seed " << seed;
  return {run_alloc_calls(*inst.world), res.steps, inst.bad(),
          inst.world->profiler()->snapshot()};
}

constexpr int kPinSeeds = 200;
// World::run's operator-new calls per ABD^k weakener run at n = 3, for
// every k. What remains is once per World or once per operation: the first
// frame of each size class, the delivery caches' first chunks, each
// client's phase records, each operation's line passes and its results
// vector. Scheduler steps themselves allocate nothing, so the count does
// not grow with k.
constexpr std::int64_t kMaxRunAllocCalls = 36;

TEST(AllocPin, WeakenerRunAtNThreeAllocatesBoundedBlocks) {
  ASSERT_NO_FATAL_FAILURE(expect_hook_counts());
  for (int k = 1; k <= 3; ++k) {
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = 0;
    for (std::uint64_t seed = 1; seed <= kPinSeeds; ++seed) {
      const PinRun r = pin_run(seed, k);
      EXPECT_LE(r.alloc_calls, kMaxRunAllocCalls)
          << "k=" << k << " seed " << seed << " (" << r.steps
          << " steps), profile " << obs::profile_to_json(r.profile).dump();
      lo = std::min(lo, r.alloc_calls);
      hi = std::max(hi, r.alloc_calls);
    }
    std::printf("alloc pin: k=%d, %d runs, World::run alloc_calls %lld..%lld\n",
                k, kPinSeeds, static_cast<long long>(lo),
                static_cast<long long>(hi));
  }
}

TEST(FramePool, WorldsOnTwoThreadsMatchTheSerialRuns) {
  // Each World owns its pool; only the pointer to the pool of the World
  // now running is per thread. Worlds run on two threads at once must
  // make exactly the allocations (and schedules) they make serially.
  ASSERT_NO_FATAL_FAILURE(expect_hook_counts());
  constexpr int kRuns = 24;
  std::vector<PinRun> serial;
  for (int i = 0; i < kRuns; ++i) serial.push_back(pin_run(i + 1, 1 + i % 3));
  std::vector<PinRun> threaded(kRuns);
  const auto half = [&threaded](int parity) {
    for (int i = parity; i < kRuns; i += 2) {
      threaded[i] = pin_run(i + 1, 1 + i % 3);
    }
  };
  std::thread t0(half, 0);
  std::thread t1(half, 1);
  t0.join();
  t1.join();
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(threaded[i].alloc_calls, serial[i].alloc_calls) << "run " << i;
    EXPECT_EQ(threaded[i].steps, serial[i].steps) << "run " << i;
    EXPECT_EQ(threaded[i].bad, serial[i].bad) << "run " << i;
  }
}

}  // namespace
}  // namespace blunt::sim
