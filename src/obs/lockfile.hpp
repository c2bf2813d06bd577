// Hardened advisory-flock discipline for append-only journals (the fuzz
// corpus is the one user).
//
// The plain discipline is "O_APPEND + one write() under a blocking flock".
// It has two gaps once several writers append to the same file: a blocking
// flock() can return EINTR (signal delivery mid-wait), which must not read
// as "not locked", and heavy contention serializes every writer behind one
// kernel wait queue with no visibility. acquire_file_lock() closes both:
//
//   * bounded retry: LOCK_EX|LOCK_NB attempts with exponential backoff,
//     each failed attempt counted in the process-global lock_retries()
//     counter (surfaced as the `obs.lock_retries` observability counter);
//   * jittered backoff derived from a caller-provided seed via SplitMix64 —
//     fully deterministic for a fixed (seed, attempt), so tests can pin the
//     exact backoff schedule while real writers (seeded from pid) decorrelate;
//   * a final blocking flock that retries EINTR instead of giving up, so the
//     lock is only ever abandoned when the filesystem refuses flock outright
//     (ENOTSUP NFS et al. — callers keep the O_APPEND single-write defense).
#pragma once

#include <cstdint>
#include <string>

namespace blunt::obs {

struct LockRetryPolicy {
  /// Non-blocking attempts before falling back to one blocking flock.
  int max_retries = 8;
  /// Backoff before retry i is base_backoff_us * 2^i plus jitter in
  /// [0, base_backoff_us * 2^i) — bounded, so a contended journal never
  /// parks a writer for more than ~2 * base * 2^max_retries microseconds.
  std::int64_t base_backoff_us = 50;
  /// Seeds the jitter stream (SplitMix64 over (seed, attempt)). Writers pass
  /// something process-unique (the pid); tests pass a constant
  /// and get a bit-identical backoff schedule.
  std::uint64_t seed = 0;
};

/// Deterministic backoff for attempt `i` under `p`: exponential base plus
/// SplitMix64 jitter. Pure function of (policy, attempt) — the unit tests
/// pin its schedule.
[[nodiscard]] std::int64_t lock_backoff_us(const LockRetryPolicy& p,
                                           int attempt);

/// Takes LOCK_EX on `fd`: p.max_retries non-blocking attempts with jittered
/// backoff (each miss counted in lock_retries()), then one blocking flock
/// that retries EINTR. Returns true when the lock is held; false only when
/// flock itself is unsupported/failed hard (callers then rely on O_APPEND).
[[nodiscard]] bool acquire_file_lock(int fd, const LockRetryPolicy& p = {});

/// LOCK_UN, tolerating EINTR.
void release_file_lock(int fd);

/// Appends `line` to `path` as one contiguous write: O_APPEND + a single
/// (short-write-resuming, EINTR-retrying) write() under acquire_file_lock.
/// This is the one torn-line-safe append every journal in the repo funnels
/// through. Throws std::runtime_error on open/write/close failure.
void locked_append(const std::string& path, const std::string& line,
                   const LockRetryPolicy& p = {});

/// Process-global count of lock-acquisition retries (contended or
/// interrupted attempts) since start/reset — the `obs.lock_retries`
/// observability counter. Telemetry only: it never feeds back into what any
/// writer writes.
[[nodiscard]] std::int64_t lock_retries();
void reset_lock_retries();

}  // namespace blunt::obs
