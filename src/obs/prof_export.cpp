#include "obs/prof_export.hpp"

#include <cstdlib>
#include <new>

namespace blunt::obs {

Json profile_to_json(const ProfileSnapshot& snap) {
  JsonObject phases;
  for (int i = 0; i < kNumPhases; ++i) {
    const Phase p = static_cast<Phase>(i);
    const PhaseStat& s = snap.phase(p);
    if (s.calls == 0 && s.ns == 0) continue;
    JsonObject o;
    o["calls"] = Json(s.calls);
    o["ns"] = Json(s.ns);
    phases[phase_name(p)] = Json(std::move(o));
  }
  JsonObject counters;
  for (int i = 0; i < kNumCounters; ++i) {
    const ProfCounter c = static_cast<ProfCounter>(i);
    if (snap.counter(c) == 0) continue;
    counters[counter_name(c)] = Json(snap.counter(c));
  }
  JsonObject out;
  out["phases"] = Json(std::move(phases));
  out["counters"] = Json(std::move(counters));
  return Json(std::move(out));
}

std::int64_t profile_self_ns(const ProfileSnapshot& snap, Phase p) {
  std::int64_t self = snap.phase(p).ns;
  for (int i = 0; i < kNumPhases; ++i) {
    if (phase_parent(static_cast<Phase>(i)) == static_cast<int>(p)) {
      self -= snap.phases[static_cast<std::size_t>(i)].ns;
    }
  }
  return self < 0 ? 0 : self;
}

std::string profile_to_collapsed_stacks(const ProfileSnapshot& snap,
                                        const std::string& root_frame) {
  std::string out;
  for (int i = 0; i < kNumPhases; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (snap.phase(p).calls == 0) continue;
    // Build the stack path root -> ... -> p off the static parent table.
    std::string path = phase_name(p);
    for (int at = phase_parent(p); at >= 0;
         at = phase_parent(static_cast<Phase>(at))) {
      path = std::string(phase_name(static_cast<Phase>(at))) + ";" + path;
    }
    if (!root_frame.empty()) path = root_frame + ";" + path;
    out += path + " " + std::to_string(profile_self_ns(snap, p)) + "\n";
  }
  return out;
}

}  // namespace blunt::obs

// ---------------------------------------------------------------------------
// Global operator-new counting hook.
//
// Replacement allocation functions must be non-inline definitions at global
// scope; they forward to malloc/free and bill the innermost AllocScope on
// the current thread (a TLS load + branch per allocation — the simulator's
// hot path is allocation-free after PR 5, so this is off the critical
// path). Living in this TU means the hook is linked exactly into binaries
// that use blunt_obs' exporters; elsewhere tls_alloc_tally is never set and
// the default operator new remains in place, reading counters as 0.

namespace {

void* blunt_counted_alloc(std::size_t size) {
  if (blunt::obs::tls_alloc_tally != nullptr) {
    blunt::obs::tls_alloc_tally->bytes +=
        static_cast<std::int64_t>(size);
    blunt::obs::tls_alloc_tally->calls += 1;
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return blunt_counted_alloc(size); }
void* operator new[](std::size_t size) { return blunt_counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return blunt_counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return blunt_counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
