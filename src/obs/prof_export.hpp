// Exporters for the deterministic profiler (obs/prof.hpp): JSON for reports
// and collapsed-stack flamegraph text. The operator-new counting hook also
// lives in this translation unit's .cpp so any binary that pulls the
// exporters in gets allocation counting for free.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace blunt::obs {

/// {"phases": {name: {"calls": int, "ns": int}}, "counters": {name: int}}.
/// All integers, so dump/parse round-trips bit-for-bit. Zero-valued phases
/// and counters are omitted — a snapshot's JSON depends only on the work it
/// observed, never on enum layout.
[[nodiscard]] Json profile_to_json(const ProfileSnapshot& snap);

/// Collapsed-stack flamegraph text: one `root;...;phase <self_ns>` line per
/// phase with calls > 0, stack path read off the static parent table, and
/// weight = inclusive ns minus the children's inclusive ns (clamped at 0 —
/// clock granularity can make a child read longer than its parent). When
/// `root_frame` is non-empty it is prepended to every stack, which is how
/// the per-n snapshots of scaling_probe land in one mergeable flamegraph.
[[nodiscard]] std::string profile_to_collapsed_stacks(
    const ProfileSnapshot& snap, const std::string& root_frame = "");

/// Self (exclusive) nanoseconds of one phase: inclusive minus children,
/// clamped at 0.
[[nodiscard]] std::int64_t profile_self_ns(const ProfileSnapshot& snap,
                                           Phase p);

}  // namespace blunt::obs
