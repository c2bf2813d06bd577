#include "obs/fingerprint.hpp"

#include <string>
#include <variant>

namespace blunt::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// The sequence-mix step shared with the kernel's determinism tests: order-
/// sensitive, so "AB" and "BA" fingerprint differently.
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

[[nodiscard]] std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Hash of one chosen event: everything that identifies it on the canonical
/// enabled-events menu. `what` is deliberately excluded — it is empty at
/// reduced trace detail, and fingerprints must not depend on the detail
/// level. This runs once per scheduler step, so the fields are packed into
/// one word and pushed through a single splitmix64 finalizer (a bijection
/// over the packed word) instead of a per-field mix chain. Field widths
/// (8/16/16/24 bits) cover every workload in the repo; a wider id would
/// alias fingerprints — acceptable for a coverage counter, never unsound.
[[nodiscard]] std::uint64_t event_hash(const sim::Event& e) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<int>(e.kind)) & 0xff) |
      ((static_cast<std::uint64_t>(e.pid) & 0xffff) << 8) |
      ((static_cast<std::uint64_t>(e.source_id) & 0xffff) << 24) |
      ((static_cast<std::uint64_t>(e.msg_id) & 0xffffff) << 40);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Structural hash of a sim::Value: variant alternative + contents. Avoids
/// to_string (no allocation on the per-invocation fold).
[[nodiscard]] std::uint64_t value_hash(const sim::Value& v) {
  std::uint64_t h = mix(kFnvOffset, static_cast<std::uint64_t>(v.index()));
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    h = mix(h, static_cast<std::uint64_t>(*i));
  } else if (const auto* vec = std::get_if<std::vector<std::int64_t>>(&v)) {
    h = mix(h, vec->size());
    for (const std::int64_t x : *vec) h = mix(h, static_cast<std::uint64_t>(x));
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    h = mix(h, fnv1a(*s));
  }
  return h;
}

}  // namespace

std::size_t ScheduleFingerprinter::choose(const sim::World& w,
                                          const sim::EnabledView& enabled) {
  const std::size_t c = inner_.choose(w, enabled);
  // Attribute the fingerprint fold (not the inner adversary's choice) to
  // the coverage phase; the counter is exact, the timer advisory.
  obs::Profiler* const prof = w.profiler();
  const obs::ScopedPhase prof_scope(prof, obs::Phase::kCoverageFingerprint);
  if (prof != nullptr) prof->count(obs::ProfCounter::kFingerprintHashes);
  const std::uint64_t eh = event_hash(enabled[c]);
  h_ = mix(h_, eh);
  ++count_;
  if (count_ >= kNgramWindow) {
    // Fold the 4-gram window oldest-first: the three shift registers plus
    // the current event (order-sensitive — "ABCD" and "DCBA" differ).
    std::uint64_t g = mix(kFnvOffset, prev3_);
    g = mix(g, prev2_);
    g = mix(g, prev1_);
    g = mix(g, eh);
    ngrams_.insert(g);
  }
  prev3_ = prev2_;
  prev2_ = prev1_;
  prev1_ = eh;
  return c;
}

std::uint64_t ScheduleFingerprinter::schedule_hash() const {
  return mix(h_, count_);
}

std::vector<std::uint64_t> object_transition_fingerprints(
    const sim::World& w) {
  const std::vector<std::string>& names = w.object_names();
  std::vector<std::uint64_t> fps;
  fps.reserve(names.size());
  for (const std::string& name : names) fps.push_back(fnv1a(name));
  // One pass over the invocation table (recorded at every trace detail
  // level), folding each record into its object's fingerprint in invocation
  // order — a pure function of the execution.
  for (const sim::InvocationRecord& inv : w.invocations()) {
    if (inv.object_id < 0 ||
        static_cast<std::size_t>(inv.object_id) >= fps.size()) {
      continue;
    }
    std::uint64_t& h = fps[static_cast<std::size_t>(inv.object_id)];
    h = mix(h, static_cast<std::uint64_t>(inv.pid) + 0x9e37);
    h = mix(h, fnv1a(inv.method));
    h = mix(h, value_hash(inv.argument));
    h = mix(h, inv.result ? value_hash(*inv.result) : 0x5bd1e995ULL);
    h = mix(h, static_cast<std::uint64_t>(inv.call_index));
    h = mix(h, static_cast<std::uint64_t>(inv.return_index));
  }
  return fps;
}

}  // namespace blunt::obs
