#include "exp/accumulator.hpp"

#include <utility>

#include "obs/prof_export.hpp"
#include "obs/report.hpp"

namespace blunt::exp {

namespace {

const BernoulliEstimator kEmptyTally;
const RunningStats kEmptyStats;
const obs::ProfileSnapshot kEmptyProfile;

}  // namespace

const BernoulliEstimator& Accumulator::tally(const std::string& name) const {
  const auto it = tallies_.find(name);
  return it == tallies_.end() ? kEmptyTally : it->second;
}

const RunningStats& Accumulator::stat(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmptyStats : it->second;
}

std::int64_t Accumulator::counter_or(const std::string& name,
                                     std::int64_t fallback) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? fallback : it->second;
}

const obs::ProfileSnapshot& Accumulator::profile(
    const std::string& name) const {
  const auto it = profiles_.find(name);
  return it == profiles_.end() ? kEmptyProfile : it->second;
}

void Accumulator::merge(const Accumulator& other) {
  for (const auto& [name, t] : other.tallies_) tallies_[name].merge(t);
  for (const auto& [name, s] : other.stats_) stats_[name].merge(s);
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, p] : other.profiles_) profiles_[name].merge(p);
  registry_.merge(other.registry_);
}

obs::Json Accumulator::to_json() const {
  obs::JsonObject tallies;
  for (const auto& [name, t] : tallies_) {
    obs::JsonObject o;
    o["successes"] = obs::Json(t.successes());
    o["trials"] = obs::Json(t.trials());
    tallies[name] = obs::Json(std::move(o));
  }
  obs::JsonObject stats;
  for (const auto& [name, s] : stats_) {
    obs::JsonObject o;
    o["count"] = obs::Json(s.count());
    o["sum"] = obs::Json(s.sum());
    o["min"] = obs::Json(s.min());
    o["max"] = obs::Json(s.max());
    o["welford_mean"] = obs::Json(s.welford_mean());
    o["m2"] = obs::Json(s.welford_m2());
    stats[name] = obs::Json(std::move(o));
  }
  obs::JsonObject counters;
  for (const auto& [name, v] : counters_) counters[name] = obs::Json(v);
  obs::JsonObject out;
  out["tallies"] = obs::Json(std::move(tallies));
  out["stats"] = obs::Json(std::move(stats));
  out["counters"] = obs::Json(std::move(counters));
  // Emitted only when profiling ran, so profile-off dumps carry no key.
  if (!profiles_.empty()) {
    obs::JsonObject profiles;
    for (const auto& [name, p] : profiles_) {
      profiles[name] = obs::profile_to_json(p);
    }
    out["profile"] = obs::Json(std::move(profiles));
  }
  out["registry"] = obs::snapshot_to_json(registry_);
  return obs::Json(std::move(out));
}

std::string Accumulator::canonical_dump() const {
  Accumulator canon = *this;
  for (auto& [name, p] : canon.profiles_) p.zero_advisory_ns();
  return canon.to_json().dump();
}

}  // namespace blunt::exp
