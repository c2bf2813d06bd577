// A weakener-style program over a snapshot object (Section 5.2's setting).
//
//   p0: Update(1)                      — sets segment 0
//   p1: Update(1); c := flip; C := c   — sets segment 1, then flips
//   p2: v1 := Scan(); v2 := Scan(); cc := C
//
// Classify a view by which of segments 0/1 are set: none / only0 / only1 /
// both. The bad outcome: v1 shows exactly segment `cc` set while v2 shows
// both — p2's first scan "matched the coin" and its second confirmed the
// race resolved afterward.
//
// Against atomic snapshots the adversary wins with probability exactly 1/2
// (p1's update completes before the flip, so only1 is the only single-segment
// view reachable afterwards; matching requires coin = 1). The Afek et al.
// double-collect discipline turns out to leave the adversary no extra power
// in THIS program (measured by `blunt_exp run snapshot_blunting`) — unlike ABD in
// Algorithm 1 — but Theorem 4.2's guarantee for Snapshot^k applies
// regardless, and the bench reports the measured values next to the bound.
#pragma once

#include <cstdint>

#include "objects/register_object.hpp"
#include "sim/world.hpp"

namespace blunt::programs {

enum class ViewClass { kNone, kOnly0, kOnly1, kBoth };

[[nodiscard]] ViewClass classify_view(const std::vector<std::int64_t>& v);

struct SnapshotWeakenerOutcome {
  std::vector<std::int64_t> v1;
  std::vector<std::int64_t> v2;
  sim::Value c;
  int coin = -1;
  bool p2_done = false;

  [[nodiscard]] bool bad() const;
};

/// Registers the three processes (must be the world's first three) over
/// snapshot `s` and register `c` (initialized to -1).
void install_snapshot_weakener(sim::World& w, objects::SnapshotObject& s,
                               objects::RegisterObject& c,
                               SnapshotWeakenerOutcome& out);

}  // namespace blunt::programs
