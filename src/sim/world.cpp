#include "sim/world.hpp"

#include <algorithm>

namespace blunt::sim {

namespace {
// The fault tick's one event; the view's tick segment points at it.
const Event kTickEvent{Event::Kind::kTick, -1, -1, -1, "fault-tick"};
// Invocation records reserved at construction, so that a small program's
// invocations never regrow the vector.
constexpr std::size_t kInvocationsReserved = 16;
}  // namespace

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kCompleted: return "completed";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kStepBudgetExhausted: return "step-budget-exhausted";
  }
  return "?";
}

World::World(Config cfg, std::unique_ptr<CoinSource> coins)
    : cfg_(cfg), coins_(std::move(coins)) {
  BLUNT_ASSERT(coins_ != nullptr, "World needs a CoinSource");
  trace_.set_detail(cfg_.trace_detail);
  if (cfg_.metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    for (int k = 0; k < kNumStepKinds; ++k) {
      const StepKind kind = static_cast<StepKind>(k);
      step_counters_[static_cast<std::size_t>(k)] = metrics_->counter(
          std::string(obs::kStepsByKindPrefix) + to_string(kind));
    }
    random_draw_counter_ = metrics_->counter(obs::kRandomDraws);
    inv_latency_ = metrics_->histogram(obs::kInvocationLatency);
  }
  if (cfg_.profile) prof_ = std::make_unique<obs::Profiler>();
  invocations_.reserve(kInvocationsReserved);
}

World::~World() = default;

Pid World::add_process(std::string name, ProcessBody body) {
  const Pid pid = static_cast<Pid>(slots_.size());
  slots_.emplace_back();
  Slot& s = slots_.back();
  s.name = std::move(name);
  // Store the callable at a stable heap address first (lambda captures live
  // inside it and the coroutine frame will refer to them), then build the
  // (lazy) coroutine from the stored copy.
  s.body = std::make_unique<ProcessBody>(std::move(body));
  {
    const detail::FramePool::Scope pool_scope(&frame_pool_);
    s.root = (*s.body)(Proc(this, pid));
  }
  BLUNT_ASSERT(s.root.valid(), "process body returned an empty Task");
  states_.push_back(ProcState::kNotStarted);
  per_process_invocations_.push_back(0);
  // Seed the enabled-index: pids are assigned in ascending order, so both
  // region appends keep their vectors sorted.
  resume_events_.push_back({Event::Kind::kResume, pid, -1, -1, "start"});
  s.in_resume_index = true;
  if (cfg_.max_crashes > 0) {
    crash_events_.push_back({Event::Kind::kCrash, pid, -1, -1, "crash"});
  }
  return pid;
}

int World::attach(DeliverySource& src) {
  sources_.push_back(&src);
  pending_bufs_.emplace_back();
  oracle_pending_.emplace_back();
  source_events_.emplace_back();
  source_synced_.push_back(0);
  const int sid = static_cast<int>(sources_.size()) - 1;
  BLUNT_ASSERT(src.world_ == nullptr, "delivery source attached twice");
  src.world_ = this;
  src.source_id_ = sid;
  return sid;
}

int World::register_object(std::string name) {
  object_names_.push_back(std::move(name));
  return static_cast<int>(object_names_.size()) - 1;
}

const std::string& World::process_name(Pid pid) const {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  return slots_[pid].name;
}

bool World::crashed(Pid pid) const {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  return states_[pid] == ProcState::kCrashed;
}

bool World::process_done(Pid pid) const {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  return states_[pid] == ProcState::kDone;
}

bool World::finished() const {
  return done_or_crashed_ == static_cast<int>(slots_.size());
}

EnabledView World::enabled_events() const {
  // A view over the incremental enabled-index in place: re-enumerate the
  // sources whose caches are not synced, then hand out the resume region,
  // every source cache, the crash region (while crash budget remains) and
  // the fault tick, without copying any of them. Event::what borrows — from
  // literals, from the parked slots' pending labels, or from the caches'
  // stable summary storage — and stays valid until the index entry is next
  // touched.
  const obs::ScopedPhase prof_scope(prof_.get(), obs::Phase::kEnabledScan);
  if (prof_ && blocked_ > 0) {
    prof_->count(obs::ProfCounter::kPredPollsAvoided, blocked_);
  }
  for (int sid = 0; sid < static_cast<int>(sources_.size()); ++sid) {
    if (source_synced_[sid] == 0) rebuild_source_cache(sid);
  }
  const bool tick =
      fault_layer_ != nullptr && fault_layer_->tick_pending(*this);
  const EnabledView view(
      resume_events_, source_events_,
      crashes_used_ < cfg_.max_crashes ? &crash_events_ : nullptr,
      tick ? &kTickEvent : nullptr);
  if (cfg_.verify_enabled_index) verify_against_rescan(view);
  return view;
}

const std::vector<Event>& World::enabled_events_rescan() const {
  build_rescan(oracle_events_, oracle_pending_);
  return oracle_events_;
}

// The pre-index linear algorithm, verbatim: poll every slot, re-enumerate
// every source. The canonical order the incremental index must reproduce
// byte for byte.
void World::build_rescan(
    std::vector<Event>& events,
    std::vector<std::vector<PendingDelivery>>& bufs) const {
  events.clear();
  for (Pid pid = 0; pid < process_count(); ++pid) {
    const Slot& s = slots_[pid];
    switch (states_[pid]) {
      case ProcState::kNotStarted:
        events.push_back({Event::Kind::kResume, pid, -1, -1, "start"});
        break;
      case ProcState::kReady:
        events.push_back({Event::Kind::kResume, pid, -1, -1, s.pending_what});
        break;
      case ProcState::kBlocked:
        BLUNT_ASSERT(s.wait_pred, "blocked process without predicate");
        if (s.wait_pred()) {
          events.push_back(
              {Event::Kind::kResume, pid, -1, -1, s.pending_what});
        }
        break;
      case ProcState::kRunning:
        BLUNT_UNREACHABLE("enabled_events during execute()");
      case ProcState::kDone:
      case ProcState::kCrashed:
        break;
    }
  }
  const bool want_summaries = trace_.recording();
  for (int sid = 0; sid < static_cast<int>(sources_.size()); ++sid) {
    std::vector<PendingDelivery>& pending = bufs[sid];
    pending.clear();
    sources_[sid]->enumerate(pending, want_summaries);
    for (const PendingDelivery& d : pending) {
      if (crashed(d.to)) continue;
      events.push_back(
          {Event::Kind::kDeliver, d.to, sid, d.msg_id, d.summary});
    }
  }
  if (crashes_used_ < cfg_.max_crashes) {
    for (Pid pid = 0; pid < process_count(); ++pid) {
      if (states_[pid] != ProcState::kDone &&
          states_[pid] != ProcState::kCrashed) {
        events.push_back({Event::Kind::kCrash, pid, -1, -1, "crash"});
      }
    }
  }
  if (fault_layer_ != nullptr && fault_layer_->tick_pending(*this)) {
    events.push_back({Event::Kind::kTick, -1, -1, -1, "fault-tick"});
  }
}

void World::verify_against_rescan(const EnabledView& events) const {
  build_rescan(oracle_events_, oracle_pending_);
  BLUNT_ASSERT(events.size() == oracle_events_.size(),
               "enabled-index diverged from rescan oracle: "
                   << events.size() << " events vs " << oracle_events_.size()
                   << " at step " << sched_steps_);
  std::size_t i = 0;
  for (const Event& e : events) {
    // Event::operator== compares string_view content, so this also checks
    // the formatted labels byte for byte.
    BLUNT_ASSERT(e == oracle_events_[i],
                 "enabled-index diverged from rescan oracle at step "
                     << sched_steps_ << " index " << i << ": index has "
                     << to_string(e) << ", oracle has "
                     << to_string(oracle_events_[i]));
    ++i;
  }
}

// ---- Incremental enabled-index maintenance ----

namespace {
// Position of pid's event in a pid-sorted region.
[[nodiscard]] std::vector<Event>::iterator region_find(std::vector<Event>& v,
                                                       Pid pid) {
  return std::lower_bound(
      v.begin(), v.end(), pid,
      [](const Event& e, Pid p) { return e.pid < p; });
}
}  // namespace

void World::resume_region_insert(Pid pid, std::string_view what) {
  auto it = region_find(resume_events_, pid);
  BLUNT_ASSERT(it == resume_events_.end() || it->pid != pid,
               "resume event for p" << pid << " already indexed");
  resume_events_.insert(it, {Event::Kind::kResume, pid, -1, -1, what});
  slots_[pid].in_resume_index = true;
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned);
    prof_->count(obs::ProfCounter::kIndexUpdates);
  }
}

void World::resume_region_erase(Pid pid) {
  auto it = region_find(resume_events_, pid);
  BLUNT_ASSERT(it != resume_events_.end() && it->pid == pid,
               "resume event for p" << pid << " not indexed");
  resume_events_.erase(it);
  slots_[pid].in_resume_index = false;
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned);
    prof_->count(obs::ProfCounter::kIndexUpdates);
  }
}

void World::resume_region_set_what(Pid pid, std::string_view what) {
  auto it = region_find(resume_events_, pid);
  BLUNT_ASSERT(it != resume_events_.end() && it->pid == pid,
               "resume event for p" << pid << " not indexed");
  it->what = what;
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned);
    prof_->count(obs::ProfCounter::kIndexUpdates);
  }
}

void World::crash_region_erase(Pid pid) {
  auto it = region_find(crash_events_, pid);
  BLUNT_ASSERT(it != crash_events_.end() && it->pid == pid,
               "crash event for p" << pid << " not indexed");
  crash_events_.erase(it);
  if (prof_) prof_->count(obs::ProfCounter::kIndexUpdates);
}

void World::rebuild_source_cache(int sid) const {
  EventChunks& c = source_events_[sid];
  const bool want_summaries = trace_.recording();
  std::vector<PendingDelivery>& pending = pending_bufs_[sid];
  pending.clear();
  sources_[sid]->enumerate(pending, want_summaries);
  c.clear();
  for (PendingDelivery& d : pending) {
    if (crashed(d.to)) continue;
    c.push_back({Event::Kind::kDeliver, d.to, sid, d.msg_id, {}},
                want_summaries
                    ? std::make_unique<std::string>(std::move(d.summary))
                    : nullptr);
  }
  source_synced_[sid] = 1;
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned,
                 static_cast<std::int64_t>(pending.size()));
    prof_->count(obs::ProfCounter::kIndexUpdates,
                 static_cast<std::int64_t>(pending.size()));
  }
}

void World::wake_hint(Pid pid) {
  if (pid < 0 || pid >= process_count()) return;
  if (states_[pid] != ProcState::kBlocked) return;
  Slot& s = slots_[pid];
  if (s.in_resume_index) return;
  BLUNT_ASSERT(s.wait_pred, "blocked process without predicate");
  if (prof_) prof_->count(obs::ProfCounter::kEventsScanned);
  if (s.wait_pred()) resume_region_insert(pid, s.pending_what);
}

void World::source_event_insert(int source_id, int msg_id, Pid to,
                                std::string&& summary) {
  BLUNT_ASSERT(source_id >= 0 &&
                   source_id < static_cast<int>(source_events_.size()),
               "push from unattached source " << source_id);
  // Until the next sync enumerates the full set, deltas are redundant.
  if (source_synced_[source_id] == 0) return;
  source_events_[source_id].push_back(
      {Event::Kind::kDeliver, to, source_id, msg_id, {}},
      trace_.recording() ? std::make_unique<std::string>(std::move(summary))
                         : nullptr);
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned);
    prof_->count(obs::ProfCounter::kIndexUpdates);
  }
}

void World::source_event_erase(int source_id, int msg_id) {
  BLUNT_ASSERT(source_id >= 0 &&
                   source_id < static_cast<int>(source_events_.size()),
               "push from unattached source " << source_id);
  if (source_synced_[source_id] == 0) return;
  source_events_[source_id].erase(msg_id);
  if (prof_) {
    prof_->count(obs::ProfCounter::kEventsScanned);
    prof_->count(obs::ProfCounter::kIndexUpdates);
  }
}

void World::source_resync(int source_id) {
  BLUNT_ASSERT(source_id >= 0 &&
                   source_id < static_cast<int>(source_synced_.size()),
               "resync of unattached source " << source_id);
  source_synced_[source_id] = 0;
}

void World::execute(Event e) {
  const obs::ScopedPhase prof_scope(prof_.get(), obs::Phase::kExecute);
  if (prof_) prof_->count(obs::ProfCounter::kStepsExecuted);
  ++sched_steps_;
  trace_.set_sched_step(sched_steps_);
  // Step-indexed fault transitions (partition opens/heals) fire first, so a
  // delivery executed at step s sees the channel state of step s. A changed
  // channel state hides or reveals held messages in every source.
  if (fault_layer_ != nullptr && fault_layer_->on_step(*this)) {
    std::fill(source_synced_.begin(), source_synced_.end(), 0);
  }
  switch (e.kind) {
    case Event::Kind::kResume:
      resume_slot(e.pid);
      break;
    case Event::Kind::kDeliver: {
      BLUNT_ASSERT(e.source_id >= 0 &&
                       e.source_id < static_cast<int>(sources_.size()),
                   "bad delivery source " << e.source_id);
      BLUNT_ASSERT(!crashed(e.pid), "delivery to crashed process");
      if (trace_.recording()) {
        trace_.append({.pid = e.pid,
                       .kind = StepKind::kDeliver,
                       .what = std::string(e.what),
                       .inv = -1,
                       .value = {}});
      } else {
        trace_.skip();
      }
      count_step(StepKind::kDeliver);
      {
        const obs::ScopedPhase delivery_scope(prof_.get(),
                                              obs::Phase::kNetDelivery);
        if (prof_) prof_->count(obs::ProfCounter::kDeliveries);
        sources_[e.source_id]->deliver(e.msg_id);
      }
      break;
    }
    case Event::Kind::kCrash: {
      BLUNT_ASSERT(crashes_used_ < cfg_.max_crashes, "crash budget exceeded");
      Slot& s = slots_[e.pid];
      const ProcState prev = states_[e.pid];
      BLUNT_ASSERT(prev != ProcState::kDone && prev != ProcState::kCrashed,
                   "crashing a finished process");
      // Retire the process from every enabled-index region it occupies.
      if (s.in_resume_index) resume_region_erase(e.pid);
      if (prev == ProcState::kBlocked) --blocked_;
      crash_region_erase(e.pid);
      states_[e.pid] = ProcState::kCrashed;
      ++done_or_crashed_;
      s.parked = {};
      s.wait_pred = nullptr;
      ++crashes_used_;
      if (trace_.recording()) {
        trace_.append({.pid = e.pid,
                       .kind = StepKind::kCrash,
                       .what = "crash",
                       .inv = -1,
                       .value = {}});
      } else {
        trace_.skip();
      }
      count_step(StepKind::kCrash);
      for (DeliverySource* src : sources_) src->on_crash(e.pid);
      break;
    }
    case Event::Kind::kTick: {
      BLUNT_ASSERT(fault_layer_ != nullptr, "tick without a fault layer");
      if (trace_.recording()) {
        trace_.append({.pid = -1,
                       .kind = StepKind::kTick,
                       .what = std::string(e.what),
                       .inv = -1,
                       .value = {}});
      } else {
        trace_.skip();
      }
      count_step(StepKind::kTick);
      break;
    }
  }
}

void World::resume_slot(Pid pid) {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  Slot& s = slots_[pid];
  // Snapshot the index membership the process holds going in; after the
  // coroutine runs, reindex_after_resume diffs against the new state.
  const ProcState prev_state = states_[pid];
  const bool was_in_index = s.in_resume_index;
  if (prev_state == ProcState::kBlocked) --blocked_;
  std::coroutine_handle<> h;
  switch (prev_state) {
    case ProcState::kNotStarted:
      if (trace_.recording()) {
        trace_.append({.pid = pid,
                       .kind = StepKind::kSpawn,
                       .what = s.name,
                       .inv = -1,
                       .value = {}});
      } else {
        trace_.skip();
      }
      count_step(StepKind::kSpawn);
      h = s.root.handle();
      break;
    case ProcState::kReady:
      if (s.pending_random_n > 0) {
        s.random_value = coins_->next(s.pending_random_n);
        ++random_draws_;
        // pending_what is read before h.resume(): the borrowed label is
        // still alive while the process is parked.
        if (trace_.recording()) {
          trace_.append({.pid = pid,
                         .kind = StepKind::kRandom,
                         .what = std::string(s.pending_what),
                         .inv = s.pending_inv,
                         .value = Value(std::int64_t{s.random_value})});
        } else {
          trace_.skip();
        }
        count_step(StepKind::kRandom);
        if (metrics_) random_draw_counter_->inc();
      } else {
        // Plain resume: attribute the step to the kind the process parked
        // with (the effect it performs right after resuming).
        count_step(s.pending_kind);
      }
      h = s.parked;
      break;
    case ProcState::kBlocked:
      BLUNT_ASSERT(s.wait_pred && s.wait_pred(),
                   "resumed a blocked process whose predicate does not hold; "
                   "wait predicates must be monotone");
      if (trace_.recording()) {
        trace_.append({.pid = pid,
                       .kind = StepKind::kWaitResume,
                       .what = std::string(s.pending_what),
                       .inv = s.pending_inv,
                       .value = {}});
      } else {
        trace_.skip();
      }
      count_step(StepKind::kWaitResume);
      h = s.parked;
      break;
    default:
      BLUNT_UNREACHABLE("resume of process in state "
                        << static_cast<int>(prev_state));
  }
  BLUNT_ASSERT(h && !h.done(), "resuming an invalid coroutine handle");
  states_[pid] = ProcState::kRunning;
  s.parked = {};
  s.wait_pred = nullptr;
  s.pending_random_n = 0;
  {
    const detail::FramePool::Scope pool_scope(&frame_pool_);
    h.resume();
  }
  // The process either re-parked (state overwritten by park*) or ran to
  // completion.
  if (s.root.done()) {
    s.root.rethrow_if_exception();
    states_[pid] = ProcState::kDone;
    ++done_or_crashed_;
  } else {
    BLUNT_ASSERT(states_[pid] != ProcState::kRunning,
                 "process p" << pid
                             << " suspended outside a Proc awaitable");
  }
  reindex_after_resume(pid, was_in_index);
}

void World::reindex_after_resume(Pid pid, bool was_in_index) {
  Slot& s = slots_[pid];
  bool want_index = false;
  std::string_view what{};
  switch (states_[pid]) {
    case ProcState::kReady:
      want_index = true;
      what = s.pending_what;
      break;
    case ProcState::kBlocked:
      ++blocked_;
      // Poll once at park; afterwards only wake_hint re-polls. Monotone
      // predicates make the indexed entry sticky.
      BLUNT_ASSERT(s.wait_pred, "blocked process without predicate");
      if (prof_) prof_->count(obs::ProfCounter::kEventsScanned);
      if (s.wait_pred()) {
        want_index = true;
        what = s.pending_what;
      }
      break;
    case ProcState::kDone:
      if (cfg_.max_crashes > 0) crash_region_erase(pid);
      break;
    default:
      BLUNT_UNREACHABLE("unexpected post-resume state for p" << pid);
  }
  // The dominant transition (ready -> ready with a new label) rewrites the
  // event in place; membership changes insert/erase with a tail move.
  if (was_in_index && want_index) {
    resume_region_set_what(pid, what);
  } else if (was_in_index) {
    resume_region_erase(pid);
  } else if (want_index) {
    resume_region_insert(pid, what);
  }
}

std::string World::describe_stuck() const {
  std::string out;
  for (Pid pid = 0; pid < process_count(); ++pid) {
    const Slot& s = slots_[pid];
    const ProcState state = states_[pid];
    if (state != ProcState::kNotStarted && state != ProcState::kReady &&
        state != ProcState::kBlocked) {
      continue;
    }
    // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict
    // overlap on `"p" + std::to_string(pid)`.
    out += 'p';
    out += std::to_string(pid);
    out += " (";
    out += s.name;
    out += "): ";
    if (state == ProcState::kNotStarted) {
      out += "not started\n";
    } else if (state == ProcState::kReady) {
      out += "ready, next step '";
      out += s.pending_what;
      out += "'\n";
    } else {
      out += "blocked on '";
      out += s.pending_what;
      out += "' (predicate ";
      out += s.wait_pred && s.wait_pred() ? "holds" : "does not hold";
      out += ")\n";
    }
  }
  std::vector<std::string> lines;
  for (int sid = 0; sid < static_cast<int>(sources_.size()); ++sid) {
    lines.clear();
    sources_[sid]->describe_pending(lines);
    for (const std::string& l : lines) {
      out += "source ";
      out += std::to_string(sid);
      out += ": ";
      out += l;
      out += '\n';
    }
  }
  if (fault_layer_ != nullptr) {
    out += fault_layer_->tick_pending(*this)
               ? "fault layer: step-indexed transitions pending\n"
               : "fault layer: no pending transitions\n";
  }
  return out;
}

RunResult World::run(Adversary& adv) {
  // Profiling-only observation around the loop: the run phase timer and the
  // allocation tally (billed by the operator-new hook when blunt_obs is
  // linked; stays zero elsewhere). With profiling off both are inert.
  RunResult result{RunStatus::kStepBudgetExhausted, 0, {}};
  {
    const obs::ScopedPhase prof_scope(prof_.get(), obs::Phase::kRun);
    obs::AllocTally alloc_tally;
    const obs::AllocScope alloc_scope(prof_ ? &alloc_tally : nullptr);
    while (sched_steps_ < cfg_.max_steps) {
      if (finished()) {
        result.status = RunStatus::kCompleted;
        break;
      }
      const EnabledView events = enabled_events();
      if (events.empty()) {
        result.status = RunStatus::kDeadlock;
        if (cfg_.deadlock_diagnostics) {
          result.deadlock_detail = describe_stuck();
          if (trace_.recording()) {
            trace_.append({.pid = -1,
                           .kind = StepKind::kLocal,
                           .what = "deadlock:\n" + result.deadlock_detail,
                           .inv = -1,
                           .value = {}});
          } else {
            trace_.skip();
          }
        }
        break;
      }
      const std::size_t idx = [&] {
        const obs::ScopedPhase choice_scope(prof_.get(),
                                            obs::Phase::kAdversaryChoice);
        return adv.choose(*this, events);
      }();
      BLUNT_ASSERT(idx < events.size(),
                   "adversary chose " << idx << " of " << events.size());
      execute(events[idx]);
    }
    if (prof_) {
      prof_->count(obs::ProfCounter::kBytesAllocated, alloc_tally.bytes);
      prof_->count(obs::ProfCounter::kAllocCalls, alloc_tally.calls);
    }
  }
  result.steps = sched_steps_;
  return result;
}

InvocationId World::begin_invocation(Pid pid, int object_id,
                                     std::string method, Value argument) {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  BLUNT_ASSERT(object_id >= 0 &&
                   object_id < static_cast<int>(object_names_.size()),
               "begin_invocation with unregistered object " << object_id);
  const InvocationId id = static_cast<InvocationId>(invocations_.size());
  InvocationRecord rec;
  rec.id = id;
  rec.pid = pid;
  rec.object_id = object_id;
  rec.object_name = object_names_[object_id];
  rec.method = std::move(method);
  rec.argument = std::move(argument);
  rec.per_process_seq = per_process_invocations_[pid]++;
  rec.call_sched_step = trace_.sched_step();
  rec.call_index =
      trace_.recording()
          ? trace_.append({.pid = pid,
                           .kind = StepKind::kCall,
                           .what = rec.object_name + "." + rec.method,
                           .inv = id,
                           .value = rec.argument})
          : trace_.skip();
  invocations_.push_back(std::move(rec));
  return id;
}

void World::end_invocation(InvocationId id, Value result) {
  BLUNT_ASSERT(id >= 0 && id < static_cast<InvocationId>(invocations_.size()),
               "bad invocation id " << id);
  InvocationRecord& rec = invocations_[id];
  BLUNT_ASSERT(rec.return_index < 0, "invocation " << id << " ended twice");
  rec.result = result;
  rec.return_index =
      trace_.recording()
          ? trace_.append({.pid = rec.pid,
                           .kind = StepKind::kReturn,
                           .what = rec.object_name + "." + rec.method,
                           .inv = id,
                           .value = std::move(result)})
          : trace_.skip();
  if (metrics_) {
    // Call-to-return latency in scheduler steps, off the recorded call step
    // (not the trace entries, which kNone does not store).
    inv_latency_->observe(
        static_cast<double>(trace_.sched_step() - rec.call_sched_step));
  }
}

void World::mark_line(InvocationId id, int line) {
  BLUNT_ASSERT(id >= 0 && id < static_cast<InvocationId>(invocations_.size()),
               "bad invocation id " << id);
  InvocationRecord& rec = invocations_[id];
  rec.max_line_passed = std::max(rec.max_line_passed, line);
  const int idx =
      trace_.recording()
          ? trace_.append({.pid = rec.pid,
                           .kind = StepKind::kLocal,
                           .what = "@line " + std::to_string(line),
                           .inv = id,
                           .value = Value(std::int64_t{line})})
          : trace_.skip();
  rec.line_passes.emplace_back(line, idx);
}

void World::park(Pid pid, std::coroutine_handle<> h, StepKind kind,
                 std::string_view what, InvocationId inv) {
  Slot& s = slots_[pid];
  BLUNT_ASSERT(states_[pid] == ProcState::kRunning,
               "park from a process that is not running");
  s.parked = h;
  states_[pid] = ProcState::kReady;
  s.pending_kind = kind;
  s.pending_what = what;
  s.pending_inv = inv;
  s.pending_random_n = 0;
  s.wait_pred = nullptr;
}

void World::park_random(Pid pid, std::coroutine_handle<> h, int n,
                        std::string_view what, InvocationId inv) {
  park(pid, h, StepKind::kRandom, what, inv);
  slots_[pid].pending_random_n = n;
}

void World::park_wait(Pid pid, std::coroutine_handle<> h,
                      std::function<bool()> pred, std::string_view what,
                      InvocationId inv) {
  park(pid, h, StepKind::kWaitResume, what, inv);
  states_[pid] = ProcState::kBlocked;
  slots_[pid].wait_pred = std::move(pred);
}

int World::drawn_random_value(Pid pid) const {
  BLUNT_ASSERT(pid >= 0 && pid < process_count(), "bad pid " << pid);
  const Slot& s = slots_[pid];
  BLUNT_ASSERT(s.random_value >= 0, "no random value drawn for p" << pid);
  return s.random_value;
}

}  // namespace blunt::sim
