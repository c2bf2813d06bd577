// Exact comparison of bench reports — the baseline gate's judge.
//
// A report's `metrics` and `registry` sections are pure functions of
// (experiment, seed, trials): the engine's merge is bit-identical for every
// thread count and every host, so a rerun at the committed settings must
// reproduce the committed file exactly. compare_reports is therefore a diff,
// not a classifier: no tolerance, no direction, no noise floor. It names
//
//   * a key that only one side has,
//   * an array of a different length,
//   * a leaf whose dump() text differs — so `1` against `1.0` counts, and
//     so does any changed bit of a double.
//
// `timings_ms`, `environment` and `profile` are never compared: they hold
// wall clocks, provenance and optional instrumentation.
//
// The Theorem 4.2 bound watchdog rides along: a report that declares its
// blunting instance (`thm42_k`, `thm42_r`, `thm42_n`, `thm42_prob_lin`,
// `thm42_prob_atomic`) fails when its `bad_probability_lo` lies above the
// closed-form bound of Section 4.2, or when its `bound_value` disagrees with
// that bound. Either means the measurement contradicts the theorem (or the
// implementation no longer satisfies its hypotheses), whatever the baseline
// says.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace blunt::obs {

/// One way a report fails its gate. `path` names the value, dotted, with
/// array elements by index ("metrics.weakener_bounds[1].bound",
/// "registry.counters.net.messages_delivered"). `baseline` and `current`
/// hold each side's dump() text, empty for a side that lacks the key, or
/// "array of N" for arrays of different lengths. A watchdog failure puts
/// what the theorem allows in `baseline`.
struct Difference {
  std::string path;
  std::string baseline;
  std::string current;
};

/// "path: baseline -> current", with "(absent)" for a missing side.
[[nodiscard]] std::string to_string(const Difference& d);

/// Every difference between the `metrics` and `registry` sections of two
/// full blunt-bench-report documents, then the watchdog's findings on
/// `current`. Empty means the gate passes.
[[nodiscard]] std::vector<Difference> compare_reports(const Json& baseline,
                                                      const Json& current);

/// The Theorem 4.2 watchdog alone: empty when the report declares no
/// blunting instance or satisfies its bound.
[[nodiscard]] std::vector<Difference> check_thm42_bound(const Json& report);

}  // namespace blunt::obs
