#include "obs/compare.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "core/bounds.hpp"

namespace blunt::obs {

namespace {

/// Appends every difference between `base` and `cur`, both found at `path`.
void diff(const Json& base, const Json& cur, const std::string& path,
          std::vector<Difference>& out) {
  if (base.is_object() && cur.is_object()) {
    for (const auto& [key, b] : base.as_object()) {
      const Json* c = cur.find(key);
      if (c == nullptr) {
        out.push_back({path + "." + key, b.dump(), ""});
      } else {
        diff(b, *c, path + "." + key, out);
      }
    }
    for (const auto& [key, c] : cur.as_object()) {
      if (base.find(key) == nullptr) {
        out.push_back({path + "." + key, "", c.dump()});
      }
    }
    return;
  }
  if (base.is_array() && cur.is_array()) {
    const JsonArray& b = base.as_array();
    const JsonArray& c = cur.as_array();
    if (b.size() != c.size()) {
      out.push_back({path, "array of " + std::to_string(b.size()),
                     "array of " + std::to_string(c.size())});
      return;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      diff(b[i], c[i], path + "[" + std::to_string(i) + "]", out);
    }
    return;
  }
  std::string b = base.dump();
  std::string c = cur.dump();
  if (b != c) out.push_back({path, std::move(b), std::move(c)});
}

}  // namespace

std::string to_string(const Difference& d) {
  return d.path + ": " + (d.baseline.empty() ? "(absent)" : d.baseline) +
         " -> " + (d.current.empty() ? "(absent)" : d.current);
}

std::vector<Difference> check_thm42_bound(const Json& report) {
  const Json* m = report.find("metrics");
  if (m == nullptr || !m->is_object()) return {};
  const Json* k = m->find("thm42_k");
  const Json* r = m->find("thm42_r");
  const Json* n = m->find("thm42_n");
  if (k == nullptr || r == nullptr || n == nullptr) {
    return {};  // no declared blunting instance: nothing to watch
  }
  const auto getd = [m](const char* key, double fallback) {
    const Json* v = m->find(key);
    return v != nullptr && v->is_number() ? v->as_double() : fallback;
  };
  const double bound = core::theorem42_bound_f(
      static_cast<int>(k->as_int()), static_cast<int>(r->as_int()),
      static_cast<int>(n->as_int()), getd("thm42_prob_lin", 1.0),
      getd("thm42_prob_atomic", 0.5));
  const std::string instance =
      " (Theorem 4.2, k=" + std::to_string(k->as_int()) +
      ", r=" + std::to_string(r->as_int()) +
      ", n=" + std::to_string(n->as_int()) + ")";

  std::vector<Difference> out;
  const Json* stored = m->find("bound_value");
  if (stored != nullptr && std::abs(stored->as_double() - bound) > 1e-9) {
    out.push_back({"metrics.bound_value", Json(bound).dump() + instance,
                   stored->dump()});
  }
  const Json* lo = m->find("bad_probability_lo");
  if (lo == nullptr || lo->as_double() > bound + 1e-12) {
    out.push_back({"metrics.bad_probability_lo",
                   "at most " + Json(bound).dump() + instance,
                   lo == nullptr ? "" : lo->dump()});
  }
  return out;
}

std::vector<Difference> compare_reports(const Json& baseline,
                                        const Json& current) {
  static const Json kEmpty{JsonObject{}};
  std::vector<Difference> out;
  for (const char* section : {"metrics", "registry"}) {
    const Json* b = baseline.find(section);
    const Json* c = current.find(section);
    diff(b != nullptr ? *b : kEmpty, c != nullptr ? *c : kEmpty, section, out);
  }
  for (Difference& d : check_thm42_bound(current)) out.push_back(std::move(d));
  return out;
}

}  // namespace blunt::obs
