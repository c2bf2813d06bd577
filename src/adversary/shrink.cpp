#include "adversary/shrink.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace blunt::adversary {
namespace {

EventDescriptor describe(const sim::Event& e) {
  return {e.kind, e.pid, e.source_id, std::string(e.what)};
}

bool matches(const EventDescriptor& d, const sim::Event& e) {
  return e.kind == d.kind && e.pid == d.pid && e.source_id == d.source_id &&
         e.what == d.what;
}

}  // namespace

std::size_t RecordingAdversary::choose(const sim::World& w,
                                       const sim::EnabledView& enabled) {
  const std::size_t idx = inner_->choose(w, enabled);
  BLUNT_ASSERT(idx < enabled.size(), "inner adversary chose out of range");
  schedule_.push_back(describe(enabled[idx]));
  return idx;
}

std::size_t EventReplayAdversary::choose(const sim::World&,
                                         const sim::EnabledView& enabled) {
  if (enabled.empty()) {
    // Out of contract (the world never offers an empty set), but a hardened
    // replayer answers deterministically instead of indexing into nothing.
    ++overflow_steps_;
    return 0;
  }
  while (pos_ < schedule_.size()) {
    const EventDescriptor& d = schedule_[pos_];
    std::size_t i = 0;
    for (const sim::Event& e : enabled) {
      if (matches(d, e)) {
        ++pos_;
        return i;
      }
      ++i;
    }
    // The described event does not exist in this (perturbed) execution —
    // one of its causes was shrunk away. Drop it and move on.
    ++pos_;
    ++skipped_;
  }
  ++overflow_steps_;
  return 0;
}

namespace {

std::vector<EventDescriptor> without(const std::vector<EventDescriptor>& all,
                                     std::size_t begin, std::size_t end) {
  std::vector<EventDescriptor> out;
  out.reserve(all.size() - (end - begin));
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i < begin || i >= end) out.push_back(all[i]);
  }
  return out;
}

}  // namespace

std::vector<EventDescriptor> shrink_schedule(
    const std::function<bool(const std::vector<EventDescriptor>&)>& fails,
    std::vector<EventDescriptor> schedule) {
  BLUNT_ASSERT(fails(schedule), "shrink_schedule: input does not fail");
  // ddmin with complement-only reduction: repeatedly try to delete chunks of
  // size n/granularity; on success restart at coarse granularity, otherwise
  // refine until granularity == n (single-event deletions). Terminates with
  // a 1-minimal sequence. Chunks are probed left to right, so tie-breaking
  // between equally viable deletions is deterministic: the lowest begin
  // index wins.
  std::size_t granularity = 2;
  while (schedule.size() >= 2 && granularity <= schedule.size()) {
    const std::size_t chunk =
        (schedule.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t begin = 0; begin < schedule.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, schedule.size());
      std::vector<EventDescriptor> candidate = without(schedule, begin, end);
      if (candidate.empty()) continue;  // keep at least one event
      if (fails(candidate)) {
        schedule = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= schedule.size()) break;
      granularity = std::min(schedule.size(), granularity * 2);
    }
  }
  // Try dropping the last remaining event too (ddmin above never empties).
  if (schedule.size() == 1) {
    std::vector<EventDescriptor> empty;
    if (fails(empty)) schedule.clear();
  }
  return schedule;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string to_scripted_program(const std::vector<EventDescriptor>& schedule,
                                const std::string& var) {
  std::ostringstream os;
  os << "adversary::ScriptedAdversary " << var << ";\n";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const EventDescriptor& d = schedule[i];
    os << var << ".step(\"e" << i << "\", ";
    switch (d.kind) {
      case sim::Event::Kind::kResume:
        os << "adversary::resume(" << d.pid << ", " << quote(d.what) << ')';
        break;
      case sim::Event::Kind::kDeliver:
        os << "adversary::deliver(" << d.pid << ", " << quote(d.what) << ')';
        break;
      case sim::Event::Kind::kCrash:
        os << "adversary::crash(" << d.pid << ')';
        break;
      case sim::Event::Kind::kTick:
        os << "adversary::tick()";
        break;
    }
    os << ");\n";
  }
  return os.str();
}

}  // namespace blunt::adversary
