// Execution coverage: a mergeable set of 64-bit execution fingerprints.
//
// Monte-Carlo soaks report *how many trials ran*; coverage reports *how many
// distinct executions they explored*. Each trial contributes fingerprints
// (full-schedule hash, sliding n-gram interleaving hashes, per-object
// state-transition hashes — see obs/fingerprint.hpp) into a CoverageMap, an
// open-addressed uint64 set designed around the experiment engine's
// determinism contract:
//
//   * insertion order never affects the stored set — merge is a plain set
//     union, so folding per-shard maps in ascending shard order yields the
//     same set for ANY --threads value;
//   * serialization is canonical: the sorted fingerprint list, each value a
//     fixed-width 16-digit lowercase hex string. Hex, not numbers, because
//     obs::Json stores doubles for non-integers and an int64 would
//     reinterpret the top bit — either way uint64 fingerprints above 2^53
//     would silently lose bits in a numeric round trip.
//
// The map is a probing table over a power-of-two slot array with 0 as the
// empty sentinel (the fingerprint 0 itself is tracked in a side flag);
// lookups hash through a splitmix64-style finalizer so adversarial-looking
// fingerprint clusters still probe well.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace blunt::obs {

/// Fixed-width (16 digit, lowercase, zero-padded) hex rendering of a 64-bit
/// fingerprint — the only serialized form (doubles lose bits above 2^53).
[[nodiscard]] std::string fingerprint_to_hex(std::uint64_t fp);

class CoverageMap {
 public:
  CoverageMap() = default;

  /// Inserts a fingerprint; returns true iff it was new. Inline: this is the
  /// per-step call on the coverage-instrumented hot path (one n-gram insert
  /// per scheduler step), and the probe fast path is a handful of ALU ops.
  bool insert(std::uint64_t fp) {
    if (fp == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    // Grow at ~70% load so probe chains stay short (also allocates the
    // initial table).
    if (slots_.empty() ||
        static_cast<std::size_t>(count_) * 10 >= slots_.size() * 7) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix_slot(fp)) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == fp) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = fp;
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t fp) const;

  /// Pre-sizes the table so `expected` insertions trigger no regrowth.
  void reserve(std::int64_t expected);

  /// Number of distinct fingerprints.
  [[nodiscard]] std::int64_t size() const {
    return count_ + (has_zero_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Set union. Associative, commutative, idempotent — the stored set (and
  /// hence the canonical serialization) is independent of merge order.
  void merge(const CoverageMap& other);

  /// The fingerprints in ascending order — the canonical enumeration.
  [[nodiscard]] std::vector<std::uint64_t> sorted() const;

  /// Canonical JSON: a sorted array of fixed-width hex strings. Two maps
  /// holding the same set dump byte-identically regardless of history.
  [[nodiscard]] Json to_json() const;

 private:
  /// splitmix64 finalizer: a cheap, well-mixed slot hash so that structured
  /// fingerprint families (e.g. consecutive schedule hashes differing in a
  /// few low bits) still spread across the table.
  [[nodiscard]] static std::uint64_t mix_slot(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void grow();
  void rehash_to(std::size_t new_slots);

  std::vector<std::uint64_t> slots_;  // power-of-two size; 0 = empty slot
  std::int64_t count_ = 0;            // non-zero fingerprints stored
  bool has_zero_ = false;             // fingerprint 0, kept out of the table
};

}  // namespace blunt::obs
