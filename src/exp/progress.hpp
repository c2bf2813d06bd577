// Live run telemetry for the experiment engine: heartbeat JSONL records.
//
// `blunt_exp run <exp> --progress FILE` starts a sampler thread next to the
// work-stealing pool. Every interval it appends one JSON line describing the
// run's observable state — shards claimed/done, trials/sec, merged coverage
// size, ETA, per-worker steal counts — read entirely from atomics (and one
// mutex-guarded telemetry coverage set) the workers update as they go. The
// sampler never touches trial state, so telemetry cannot perturb the
// engine's determinism contract: the merged result of a run with --progress
// is bit-identical to the same run without it.
//
// Schema (one record per line, schema marker "blunt-exp-progress"):
//
//   {"schema":"blunt-exp-progress","version":1,
//    "experiment":"...","seed":"<16-digit hex>","threads":N,
//    "t_ms":<since run start>,
//    "shards_total":N,"shards_resumed":N,"shards_claimed":N,"shards_done":N,
//    "trials_total":N,"trials_done":N,"trials_per_sec":R,"eta_ms":E,
//    "coverage_size":N,"steals":[per-worker executed shard counts],
//    "done":false,"complete":false}
//
// The final record of a run has done=true (and complete=true unless the run
// stopped at --max-shards); `blunt_exp watch FILE` tails the file into a
// terminal status line and exits when it sees done=true. Seeds are hex
// strings for the same reason coverage fingerprints are: a uint64 above
// 2^53 does not survive a double round trip.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace blunt::exp {

inline constexpr const char* kProgressSchema = "blunt-exp-progress";
inline constexpr int kProgressVersion = 1;

struct ProgressSample {
  std::string experiment;
  std::uint64_t seed = 0;
  int threads = 0;
  double t_ms = 0.0;
  std::int64_t shards_total = 0;
  std::int64_t shards_resumed = 0;
  std::int64_t shards_claimed = 0;
  std::int64_t shards_done = 0;
  std::int64_t trials_total = 0;
  std::int64_t trials_done = 0;
  double trials_per_sec = 0.0;
  double eta_ms = 0.0;
  std::int64_t coverage_size = 0;
  std::vector<std::int64_t> steals;  // executed shards per worker
  bool done = false;
  bool complete = false;
};

[[nodiscard]] obs::Json progress_to_json(const ProgressSample& s);

/// Strict parse; std::nullopt for anything that is not a valid progress
/// record (wrong schema, missing fields, torn line).
[[nodiscard]] std::optional<ProgressSample> progress_from_json(
    const obs::Json& j);

/// Parses one JSONL line (tolerates surrounding whitespace).
[[nodiscard]] std::optional<ProgressSample> parse_progress_line(
    const std::string& line);

/// Last valid record in a progress file; std::nullopt if none.
[[nodiscard]] std::optional<ProgressSample> read_last_progress(
    const std::string& path);

/// One-line human rendering for the watch mode's status line.
[[nodiscard]] std::string render_status_line(const ProgressSample& s);

/// Tails `path`, rendering each new valid record as a \r-refreshed status
/// line on `out`; returns 0 once a done=true record is seen. Tailing is
/// incremental (only bytes appended since the last poll are read) and
/// torn-tolerant: a partial final line — the sampler's write racing the
/// read, or a run killed mid-heartbeat — is buffered until its newline
/// arrives and never stops the tail or corrupts the status line. A file
/// that shrinks (rotated or restarted run) is re-tailed from the start.
/// `poll_ms` bounds the poll cadence; `max_polls` > 0 gives up (returns 1)
/// after that many polls without a done record — the CLI passes 0 (wait
/// forever).
int watch_progress(const std::string& path, int poll_ms, std::FILE* out,
                   long max_polls = 0);

}  // namespace blunt::exp
