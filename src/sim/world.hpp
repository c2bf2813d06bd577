// World: the deterministic, adversary-scheduled simulation kernel.
//
// A World hosts a set of simulated processes (coroutines), any number of
// message-passing delivery sources (see net::Network), and a coin source.
// Execution proceeds in *scheduler steps*: at each step the World enumerates
// the enabled events in a canonical order (process resumptions, message
// deliveries, optionally crashes) and asks the Adversary to pick one. This
// realizes the strong adversary of Section 2.4 of the paper: the adversary
// observes the entire past of the execution — including all random values
// drawn so far, via trace() — but never future coins, because coins are drawn
// only when the chosen event executes.
//
// Determinism: an execution is a pure function of (coin sequence, sequence of
// chosen event indices). The replay explorer in src/adversary exploits this
// to enumerate schedules exhaustively.
//
// Step granularity: a process runs uninterrupted between two `co_await`
// points on Proc (yield / random / wait_until). All shared-state effects
// (base-register accesses, sends) must sit immediately after such a point, a
// convention every object implementation in src/objects follows, so each
// scheduler step performs at most one shared-state effect — the interleaving
// semantics of Section 2.1.
#pragma once

#include <array>
#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/coin.hpp"
#include "sim/delivery.hpp"
#include "sim/enabled_view.hpp"
#include "sim/event.hpp"
#include "sim/fault_hooks.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sim/value.hpp"

namespace blunt::sim {

class World;
class Adversary;

struct Config {
  /// Maximum scheduler steps before run() gives up.
  int max_steps = 200000;
  /// How many processes the adversary may crash (0 = crash events disabled).
  int max_crashes = 0;
  /// Observability: when set, the World owns an obs::MetricsRegistry and
  /// records scheduler steps by kind, invocation latencies, and random
  /// draws (objects and networks hook in through World::metrics()). Off by
  /// default — the disabled cost on the step path is one null check.
  bool metrics = false;
  /// When a run ends in kDeadlock, describe the stuck state (which processes
  /// are blocked and on what; held vs. partitioned messages per source) in
  /// RunResult::deadlock_detail and append it to the trace. On by default;
  /// the cost is paid only on the deadlock path.
  bool deadlock_diagnostics = true;
  /// How much of the trace to materialize (see TraceDetail). The default,
  /// kFull, reproduces the historical byte-identical trace; Monte-Carlo
  /// experiments run at kNone, which skips every formatted `what` string and
  /// stores no entries while keeping the execution — event enumeration
  /// order, adversary choices, coin draws, metrics — bit-identical
  /// (hotpath_determinism_test holds this to golden values).
  TraceDetail trace_detail = TraceDetail::kFull;
  /// Deterministic profiling (obs/prof.hpp): when set, the World owns an
  /// obs::Profiler that attributes wall time per subsystem phase and keeps
  /// exact work counters (events scanned, deliveries, alloc bytes, ...).
  /// Purely observational — schedules, coins, and metrics are unchanged
  /// (hotpath_determinism_test checks this at every trace level) — and off
  /// by default, where the step-path cost is one null check per site.
  bool profile = false;
  /// Debug oracle for the incremental enabled-index: every enabled_events()
  /// call additionally rebuilds the list with the pre-index linear rescan
  /// (poll every slot, re-enumerate every source) and asserts the two lists
  /// are byte-identical, element by element. O(n) per step — differential
  /// tests only. Note the oracle re-polls blocked wait predicates, so
  /// profiler counters with poll-site side effects (quorum_touches) are
  /// inflated under this flag; schedules and traces are unchanged.
  bool verify_enabled_index = false;
};

enum class RunStatus {
  kCompleted,            // every process ran to completion (or crashed)
  kDeadlock,             // live processes exist but no event is enabled
  kStepBudgetExhausted,  // cfg.max_steps reached
};

[[nodiscard]] const char* to_string(RunStatus s);

struct RunResult {
  RunStatus status = RunStatus::kCompleted;
  int steps = 0;
  /// Human-readable stuck-state report, filled on kDeadlock when
  /// Config::deadlock_diagnostics is on (see World::describe_stuck).
  std::string deadlock_detail;
};

/// Lightweight handle a process coroutine uses to interact with its World.
/// Copyable; carries no ownership.
class Proc {
 public:
  Proc() = default;
  Proc(World* w, Pid pid) : world_(w), pid_(pid) {}

  [[nodiscard]] Pid pid() const { return pid_; }
  [[nodiscard]] World& world() const {
    BLUNT_ASSERT(world_ != nullptr, "Proc not bound to a World");
    return *world_;
  }

  // Awaitables (definitions below World). `what` labels are borrowed, not
  // copied: a view into a string literal, a long-lived object label, or a
  // temporary materialized inside the co_await full-expression — all of
  // which live in the coroutine frame across the suspension, so the parked
  // slot's view stays valid until the process resumes.
  /// One adversary-schedulable step; the code after `co_await` runs when the
  /// adversary resumes this process.
  [[nodiscard]] auto yield(StepKind kind, std::string_view what,
                           InvocationId inv = -1);
  /// A random(V) step with |V| = n; returns the sampled index in [0, n).
  [[nodiscard]] auto random(int n, std::string_view what,
                            InvocationId inv = -1);
  /// Blocks until `pred` holds, then takes one step. The enabled-index polls
  /// `pred` when the process parks and again only on World::wake_hint(pid),
  /// so whoever can turn it true must call wake_hint from that site (e.g. an
  /// ABD quorum counter reaching majority in a message handler). `pred` must
  /// be monotone (once true, stays true until the process is resumed) —
  /// quorum waits are.
  [[nodiscard]] auto wait_until(std::function<bool()> pred,
                                std::string_view what, InvocationId inv = -1);

 private:
  World* world_ = nullptr;
  Pid pid_ = -1;
};

/// Strong adversary interface: picks one of the enabled events. `w` exposes
/// the full past (trace, invocations, random values) — nothing about future
/// coins exists yet to observe.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual std::size_t choose(const World& w, const EnabledView& enabled) = 0;
};

class World {
 public:
  using ProcessBody = std::function<Task<void>(Proc)>;

  World(Config cfg, std::unique_ptr<CoinSource> coins);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Registers a process. The body is stored by value before being invoked,
  /// so lambda captures outlive the coroutine frame.
  Pid add_process(std::string name, ProcessBody body);

  /// Registers a message-delivery source (e.g. one net::Network per
  /// protocol instance) and binds it to this World under the returned
  /// source id; it then reports its changes here (see DeliverySource). The
  /// source must outlive the World's run and be attached only once.
  int attach(DeliverySource& src);

  /// Registers a shared object for history bookkeeping; returns object id.
  int register_object(std::string name);

  /// Installs the fault-injection interposition layer (nullptr = none, the
  /// default). While installed, the World calls layer->on_step() on every
  /// executed step, resyncs every delivery source when it reports a channel
  /// change, and offers a kTick event whenever layer->tick_pending().
  /// Networks consult the same layer separately (net::Network::
  /// set_fault_layer); installing one here does not rewire networks.
  void set_fault_layer(FaultLayer* layer) { fault_layer_ = layer; }
  [[nodiscard]] FaultLayer* fault_layer() const { return fault_layer_; }

  /// Runs to completion / deadlock / budget under the given adversary.
  RunResult run(Adversary& adv);

  // -- Single-stepping interface (used by run() and by explorers) --

  /// Enumerates enabled events in canonical order: process resumptions by
  /// ascending pid, then deliveries by (source id, message id), then crashes
  /// by ascending pid, then the fault tick. Returns a read-only view over
  /// the incremental enabled-index itself — the maintained resume/crash
  /// regions and per-source caches, updated on state transitions rather
  /// than rebuilt per step — in byte-identical content and order to the
  /// historical linear rescan (enabled_events_rescan is the oracle). Nothing
  /// is copied, so the view's events — and the string_views inside them —
  /// are valid until the next enabled_events() or execute() call. Callers
  /// that keep events longer, or execute while iterating, must copy first
  /// (EnabledView::to_vector()).
  [[nodiscard]] EnabledView enabled_events() const;
  /// The pre-index linear rescan: rebuilds the enabled list from scratch
  /// into a separate scratch buffer by polling every slot and re-enumerating
  /// every source. Kept as the debug oracle for the incremental index
  /// (Config::verify_enabled_index, the differential test); O(n) per call.
  [[nodiscard]] const std::vector<Event>& enabled_events_rescan() const;
  /// Executes one enabled event (must come from enabled_events()). Takes
  /// its argument by value: a view element aliases index storage that
  /// executing it changes (a crash erases its own crash-region entry).
  void execute(Event e);
  /// True iff every process is done or crashed (O(1): maintained count).
  [[nodiscard]] bool finished() const;

  /// Dependency notification for wait_until: the object a process is
  /// blocked on calls this when the watched condition may have turned true
  /// (quorum counter bumped, message arrived). Re-polls the predicate and,
  /// if it now holds, inserts the process's resume event into the
  /// enabled-index (sticky: monotone predicates never go false while
  /// parked). No-op for non-blocked / already-indexed processes.
  void wake_hint(Pid pid);

  // -- Enabled-index updates from attached delivery sources --
  // Inserts and erases are no-ops while the source's cache is unsynced
  // (from attach or a resync until the next scan): the enumeration that
  // scan performs already reflects them.

  /// Message `msg_id`, addressed to `to`, became deliverable. Inserts arrive
  /// in strictly increasing msg_id order per source. `summary` is consulted
  /// only while the trace is recording and may be empty otherwise.
  void source_event_insert(int source_id, int msg_id, Pid to,
                           std::string&& summary);
  /// Message `msg_id` is no longer deliverable (delivered or dropped).
  void source_event_erase(int source_id, int msg_id);
  /// What the source enumerates changed in a way it does not report per
  /// message; the next scan re-enumerates it.
  void source_resync(int source_id);

  // -- Observation (adversaries, checkers, tests) --

  [[nodiscard]] const Config& config() const { return cfg_; }
  /// The metrics registry, or nullptr when Config::metrics is off.
  /// Instrumentation sites (networks, objects) must tolerate nullptr.
  [[nodiscard]] obs::MetricsRegistry* metrics() const {
    return metrics_.get();
  }
  /// The profiler, or nullptr when Config::profile is off. Same nullable
  /// discipline as metrics(): every site tolerates nullptr.
  [[nodiscard]] obs::Profiler* profiler() const { return prof_.get(); }
  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] Trace& trace_mutable() { return trace_; }
  [[nodiscard]] const std::vector<InvocationRecord>& invocations() const {
    return invocations_;
  }
  [[nodiscard]] int steps_executed() const { return sched_steps_; }
  [[nodiscard]] int random_draws() const { return random_draws_; }
  [[nodiscard]] int process_count() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] const std::string& process_name(Pid pid) const;
  [[nodiscard]] bool crashed(Pid pid) const;
  [[nodiscard]] bool process_done(Pid pid) const;

  /// Multi-line report of why no event is enabled: per live process, what it
  /// is blocked on (wait predicate label / ready-but-unscheduled); per
  /// delivery source, its held and partitioned messages. Used by run() on
  /// deadlock; callable any time for debugging.
  [[nodiscard]] std::string describe_stuck() const;

  // -- Invocation bookkeeping (called by object implementations) --

  /// Records the call action of a method invocation; returns its id.
  InvocationId begin_invocation(Pid pid, int object_id, std::string method,
                                Value argument);
  /// Records the return action.
  void end_invocation(InvocationId id, Value result);
  /// Records that invocation `id` passed control point `line` (the paper's
  /// "step of i at ℓ"); consumed by the tail-strong-linearizability checker
  /// and the preamble framework.
  void mark_line(InvocationId id, int line);

  [[nodiscard]] const std::vector<std::string>& object_names() const {
    return object_names_;
  }

  // -- Internal: awaiter support (public for the awaiter types; not a user
  //    API) --

  void park(Pid pid, std::coroutine_handle<> h, StepKind kind,
            std::string_view what, InvocationId inv);
  void park_random(Pid pid, std::coroutine_handle<> h, int n,
                   std::string_view what, InvocationId inv);
  void park_wait(Pid pid, std::coroutine_handle<> h,
                 std::function<bool()> pred, std::string_view what,
                 InvocationId inv);
  [[nodiscard]] int drawn_random_value(Pid pid) const;

 private:
  enum class ProcState {
    kNotStarted,
    kReady,    // parked, resumable
    kBlocked,  // parked behind a wait predicate
    kRunning,  // currently executing (transient, inside execute())
    kDone,
    kCrashed,
  };

  // Per-process storage is split struct-of-arrays style: the scheduler-hot
  // field (state) lives in its own dense states_ array indexed by pid, the
  // cold per-coroutine bookkeeping stays in Slot. crashed()/process_done()/
  // the execute() dispatch touch only states_.
  struct Slot {
    std::string name;
    // Owns the lambda captures the coroutine frame refers into. Held by
    // unique_ptr so its address survives slots_ reallocation.
    std::unique_ptr<ProcessBody> body;
    Task<void> root;
    std::coroutine_handle<> parked;
    StepKind pending_kind = StepKind::kLocal;
    // Borrowed from the awaiter (see Proc::yield): valid while parked, read
    // only before the coroutine resumes.
    std::string_view pending_what;
    InvocationId pending_inv = -1;
    // Polled at park and on wake_hint only, never on scans.
    std::function<bool()> wait_pred;
    // True iff resume_events_ currently holds this pid's resume event (the
    // sticky enabled marker for blocked waiters; always true for
    // kNotStarted/kReady).
    bool in_resume_index = false;
    int pending_random_n = 0;  // > 0: next resume draws a coin
    int random_value = -1;     // last drawn coin for this process
  };

  void resume_slot(Pid pid);
  void count_step(StepKind kind) {
    if (metrics_) step_counters_[static_cast<std::size_t>(kind)]->inc();
  }

  // Incremental enabled-index maintenance (all O(log n) search + O(n) tail
  // move worst case, O(1) for the dominant replace-in-place transition).
  void resume_region_insert(Pid pid, std::string_view what);
  void resume_region_erase(Pid pid);
  void resume_region_set_what(Pid pid, std::string_view what);
  void crash_region_erase(Pid pid);
  void rebuild_source_cache(int sid) const;
  // Reconciles a process's index membership after a state transition
  // (repark, wait, completion) inside resume_slot.
  void reindex_after_resume(Pid pid, bool was_in_index);
  void build_rescan(std::vector<Event>& out,
                    std::vector<std::vector<PendingDelivery>>& bufs) const;
  void verify_against_rescan(const EnabledView& events) const;

  Config cfg_;
  std::unique_ptr<CoinSource> coins_;
  FaultLayer* fault_layer_ = nullptr;
  // Observability (null / unset unless cfg_.metrics): counter per StepKind
  // cached at construction so the hot path is one branch + one increment.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  // Deterministic profiler (null unless cfg_.profile); owned per World so
  // snapshots merge shard-by-shard like metrics registries.
  std::unique_ptr<obs::Profiler> prof_;
  std::array<obs::Counter*, kNumStepKinds> step_counters_{};
  obs::Counter* random_draw_counter_ = nullptr;
  obs::Histogram* inv_latency_ = nullptr;
  std::vector<Slot> slots_;
  // Hot per-process state, struct-of-arrays twin of slots_ (same indexing).
  std::vector<ProcState> states_;
  std::vector<DeliverySource*> sources_;
  // One pending-delivery buffer per source, reused by re-enumerations.
  mutable std::vector<std::vector<PendingDelivery>> pending_bufs_;
  // -- Incremental enabled-index (DESIGN.md §14): the segments an
  // EnabledView reads in place --
  // Resume events for every process whose resume is currently enabled
  // (kNotStarted, kReady, and blocked with a true predicate), sorted by
  // pid; updated on state transitions.
  std::vector<Event> resume_events_;
  // Crash events for every live process, sorted by pid; maintained only
  // when cfg_.max_crashes > 0, offered while crash budget remains.
  std::vector<Event> crash_events_;
  // Per-source deliverable events (parallel to sources_), and whether each
  // is synced: an unsynced source is re-enumerated by the next scan.
  // Mutable: refreshed lazily inside const enabled_events().
  mutable std::vector<EventChunks> source_events_;
  mutable std::vector<char> source_synced_;
  // Count of blocked processes (for kPredPollsAvoided).
  int blocked_ = 0;
  // Count of kDone/kCrashed processes (O(1) finished()).
  int done_or_crashed_ = 0;
  // Scratch for the rescan oracle; separate from the hot-path buffers so
  // verification never perturbs them.
  mutable std::vector<Event> oracle_events_;
  mutable std::vector<std::vector<PendingDelivery>> oracle_pending_;
  std::vector<std::string> object_names_;
  Trace trace_;
  std::vector<InvocationRecord> invocations_;
  std::vector<int> per_process_invocations_;
  int sched_steps_ = 0;
  int random_draws_ = 0;
  int crashes_used_ = 0;
};

// ---- Awaitable definitions ----

namespace detail {

// The `what` views below are safe across suspension: when a caller passes a
// temporary std::string built inside the co_await full-expression, that
// temporary is stored in the coroutine frame and is not destroyed until the
// full-expression completes — i.e. after the process has been resumed — so
// the parked Slot's borrowed view never dangles.

struct StepAwaiter {
  World* w;
  Pid pid;
  StepKind kind;
  std::string_view what;
  InvocationId inv;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    w->park(pid, h, kind, what, inv);
  }
  void await_resume() const noexcept {}
};

struct RandomAwaiter {
  World* w;
  Pid pid;
  int n;
  std::string_view what;
  InvocationId inv;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    w->park_random(pid, h, n, what, inv);
  }
  [[nodiscard]] int await_resume() const { return w->drawn_random_value(pid); }
};

struct WaitAwaiter {
  World* w;
  Pid pid;
  std::function<bool()> pred;
  std::string_view what;
  InvocationId inv;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    w->park_wait(pid, h, std::move(pred), what, inv);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto Proc::yield(StepKind kind, std::string_view what,
                        InvocationId inv) {
  return detail::StepAwaiter{&world(), pid_, kind, what, inv};
}

inline auto Proc::random(int n, std::string_view what, InvocationId inv) {
  BLUNT_ASSERT(n >= 1, "random(V) needs |V| >= 1");
  return detail::RandomAwaiter{&world(), pid_, n, what, inv};
}

inline auto Proc::wait_until(std::function<bool()> pred, std::string_view what,
                             InvocationId inv) {
  return detail::WaitAwaiter{&world(), pid_, std::move(pred), what, inv};
}

}  // namespace blunt::sim
