#include "adversary/scripted.hpp"

#include "common/assert.hpp"

namespace blunt::adversary {

Matcher resume(Pid pid, std::string what) {
  return [pid, what = std::move(what)](const sim::World&,
                                       const sim::Event& e) {
    return e.kind == sim::Event::Kind::kResume && e.pid == pid &&
           (what.empty() || e.what.find(what) != std::string::npos);
  };
}

Matcher deliver(Pid to, std::string what) {
  return [to, what = std::move(what)](const sim::World&, const sim::Event& e) {
    return e.kind == sim::Event::Kind::kDeliver && e.pid == to &&
           e.what.find(what) != std::string::npos;
  };
}

Matcher deliver(Pid to, std::vector<std::string> parts) {
  return [to, parts = std::move(parts)](const sim::World&,
                                        const sim::Event& e) {
    if (e.kind != sim::Event::Kind::kDeliver || e.pid != to) return false;
    for (const std::string& p : parts) {
      if (e.what.find(p) == std::string::npos) return false;
    }
    return true;
  };
}

Matcher crash(Pid pid) {
  return [pid](const sim::World&, const sim::Event& e) {
    return e.kind == sim::Event::Kind::kCrash && e.pid == pid;
  };
}

Matcher tick() {
  return [](const sim::World&, const sim::Event& e) {
    return e.kind == sim::Event::Kind::kTick;
  };
}

Matcher any_event(std::string what) {
  return [what = std::move(what)](const sim::World&, const sim::Event& e) {
    return e.what.find(what) != std::string::npos;
  };
}

ScriptedAdversary& ScriptedAdversary::step(std::string name, Matcher m) {
  Entry e;
  e.name = std::move(name);
  e.match = std::move(m);
  entries_.push_back(std::move(e));
  return *this;
}

ScriptedAdversary& ScriptedAdversary::drive(
    std::string name, std::vector<Matcher> priorities,
    std::function<bool(const sim::World&)> until) {
  Entry e;
  e.name = std::move(name);
  e.priorities = std::move(priorities);
  e.until = std::move(until);
  entries_.push_back(std::move(e));
  return *this;
}

ScriptedAdversary& ScriptedAdversary::branch(
    std::string name,
    std::function<void(const sim::World&, ScriptedAdversary&)> expand) {
  Entry e;
  e.name = std::move(name);
  e.expand = std::move(expand);
  entries_.push_back(std::move(e));
  return *this;
}

std::size_t ScriptedAdversary::choose(const sim::World& w,
                                      const sim::EnabledView& enabled) {
  for (;;) {
    if (pos_ >= entries_.size()) {
      ++overflow_steps_;
      return 0;
    }
    Entry& cur = entries_[pos_];
    if (cur.expand) {
      // Splice the branch's sub-script right after this entry.
      ScriptedAdversary sub;
      cur.expand(w, sub);
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos_) + 1,
                      sub.entries_.begin(), sub.entries_.end());
      ++pos_;
      continue;
    }
    if (cur.match) {
      ++pos_;
      std::size_t i = 0;
      for (const sim::Event& e : enabled) {
        if (cur.match(w, e)) return i;
        ++i;
      }
      BLUNT_UNREACHABLE("scripted step '" << cur.name
                                          << "' matched no enabled event");
    }
    // Drive.
    if (cur.until(w)) {
      ++pos_;
      continue;
    }
    for (const Matcher& m : cur.priorities) {
      std::size_t i = 0;
      for (const sim::Event& e : enabled) {
        if (m(w, e)) return i;
        ++i;
      }
    }
    BLUNT_UNREACHABLE("drive '" << cur.name
                                << "' found no matching enabled event");
  }
}

}  // namespace blunt::adversary
