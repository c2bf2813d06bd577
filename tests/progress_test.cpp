// Live run telemetry (exp/progress.hpp): the heartbeat JSONL schema round
// trips exactly (including uint64 seeds above 2^53, carried as hex), a run
// with --progress produces a well-formed monotone record stream ending in
// done=true, telemetry never perturbs the merged result, and the watch
// renderer behaves on both live and finished files.
#include "exp/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.hpp"

namespace blunt::exp {
namespace {

ProgressSample make_sample() {
  ProgressSample s;
  s.experiment = "synthetic";
  s.seed = (1ULL << 60) + 3;  // beyond double precision: hex must carry it
  s.threads = 3;
  s.t_ms = 123.5;
  s.shards_total = 21;
  s.shards_resumed = 2;
  s.shards_claimed = 10;
  s.shards_done = 9;
  s.trials_total = 333;
  s.trials_done = 144;
  s.trials_per_sec = 1166.0;
  s.eta_ms = 140.0;
  s.coverage_size = 512;
  s.steals = {4, 3, 2};
  s.done = false;
  s.complete = false;
  return s;
}

TEST(ProgressSchema, JsonRoundTripIsExact) {
  const ProgressSample s = make_sample();
  const obs::Json j = progress_to_json(s);
  const std::optional<ProgressSample> back =
      progress_from_json(obs::Json::parse(j.dump()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->experiment, s.experiment);
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->threads, s.threads);
  EXPECT_EQ(back->shards_total, s.shards_total);
  EXPECT_EQ(back->shards_resumed, s.shards_resumed);
  EXPECT_EQ(back->shards_claimed, s.shards_claimed);
  EXPECT_EQ(back->shards_done, s.shards_done);
  EXPECT_EQ(back->trials_total, s.trials_total);
  EXPECT_EQ(back->trials_done, s.trials_done);
  EXPECT_EQ(back->coverage_size, s.coverage_size);
  EXPECT_EQ(back->steals, s.steals);
  EXPECT_EQ(back->done, s.done);
  EXPECT_EQ(back->complete, s.complete);
  EXPECT_EQ(progress_to_json(*back).dump(), j.dump());
}

TEST(ProgressSchema, ParserRejectsGarbageAndTornLines) {
  EXPECT_FALSE(parse_progress_line("").has_value());
  EXPECT_FALSE(parse_progress_line("   \t").has_value());
  EXPECT_FALSE(parse_progress_line("not json").has_value());
  EXPECT_FALSE(parse_progress_line("{\"schema\":\"other\"}").has_value());
  // A torn (mid-write) line is a prefix of a valid record.
  const std::string full = progress_to_json(make_sample()).dump();
  EXPECT_FALSE(
      parse_progress_line(full.substr(0, full.size() / 2)).has_value());
  EXPECT_TRUE(parse_progress_line(full).has_value());
}

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_progress_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Experiment make_slow_synthetic() {
  Experiment e;
  e.name = "progress_synthetic";
  e.description = "progress test workload";
  e.default_trials = 200;
  e.default_seed = 3;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    // A little busywork per trial so the sampler gets a chance to tick.
    volatile std::uint64_t x = ctx.seed;
    for (int i = 0; i < 20000; ++i) x = x * 6364136223846793005ULL + 1;
    acc.counter("n") += 1;
    acc.coverage("schedules").insert(ctx.seed);
  };
  return e;
}

std::vector<ProgressSample> read_all(const std::string& path) {
  std::vector<ProgressSample> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (std::optional<ProgressSample> s = parse_progress_line(line)) {
      out.push_back(std::move(*s));
    }
  }
  return out;
}

TEST(ProgressRun, EmitsMonotoneRecordsEndingDone) {
  const Experiment e = make_slow_synthetic();
  TempFile f("run");
  RunOptions opts;
  opts.threads = 2;
  opts.shard_size = 8;
  opts.coverage = true;
  opts.progress_path = f.path();
  opts.progress_interval_ms = 10;  // clamped floor: sample aggressively
  const RunOutput out = run_trials(e, opts);
  EXPECT_TRUE(out.info.complete);

  const std::vector<ProgressSample> samples = read_all(f.path());
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ProgressSample& s = samples[i];
    EXPECT_EQ(s.experiment, "progress_synthetic");
    EXPECT_EQ(s.seed, 3u);
    EXPECT_EQ(s.threads, 2);
    EXPECT_EQ(s.shards_total, 25);
    EXPECT_EQ(s.trials_total, 200);
    EXPECT_LE(s.shards_done, s.shards_claimed);
    EXPECT_LE(s.trials_done, s.trials_total);
    EXPECT_EQ(s.steals.size(), 2u);
    if (i > 0) {  // counters only ever grow
      EXPECT_GE(s.shards_claimed, samples[i - 1].shards_claimed);
      EXPECT_GE(s.shards_done, samples[i - 1].shards_done);
      EXPECT_GE(s.trials_done, samples[i - 1].trials_done);
      EXPECT_GE(s.coverage_size, samples[i - 1].coverage_size);
      EXPECT_FALSE(samples[i - 1].done);  // done only on the last record
    }
  }
  const ProgressSample& last = samples.back();
  EXPECT_TRUE(last.done);
  EXPECT_TRUE(last.complete);
  EXPECT_EQ(last.shards_done, 25);
  EXPECT_EQ(last.trials_done, 200);
  // The telemetry union equals the merged coverage set's size (union is
  // order-insensitive).
  EXPECT_EQ(last.coverage_size,
            static_cast<std::int64_t>(out.merged.coverage("schedules").size()));

  std::int64_t stolen = 0;
  for (const std::int64_t w : last.steals) stolen += w;
  EXPECT_EQ(stolen, 25);  // every shard executed by exactly one worker

  EXPECT_TRUE(read_last_progress(f.path()).has_value());
  EXPECT_TRUE(read_last_progress(f.path())->done);
}

TEST(ProgressRun, TelemetryDoesNotChangeMergedResult) {
  const Experiment e = make_slow_synthetic();
  RunOptions plain;
  plain.threads = 2;
  plain.shard_size = 8;
  plain.coverage = true;
  const std::string want = run_trials(e, plain).merged.to_json().dump();

  TempFile f("bits");
  RunOptions with_progress = plain;
  with_progress.progress_path = f.path();
  with_progress.progress_interval_ms = 10;
  EXPECT_EQ(run_trials(e, with_progress).merged.to_json().dump(), want);
}

TEST(ProgressWatch, RendersAndTerminates) {
  const ProgressSample live = make_sample();
  const std::string line = render_status_line(live);
  EXPECT_NE(line.find("synthetic"), std::string::npos);
  EXPECT_NE(line.find("trials/s"), std::string::npos);
  ProgressSample fin = live;
  fin.done = true;
  fin.complete = true;
  EXPECT_NE(render_status_line(fin).find("done"), std::string::npos);

  TempFile f("watch");
  {
    std::ofstream out(f.path());
    out << progress_to_json(live).dump() << '\n';
    out << progress_to_json(fin).dump() << '\n';
  }
  // done=true record present -> watch returns 0 on its first poll.
  EXPECT_EQ(watch_progress(f.path(), 10, stderr, /*max_polls=*/5), 0);
  // A file stuck before done=true makes watch give up after max_polls.
  TempFile stuck("stuck");
  {
    std::ofstream out(stuck.path());
    out << progress_to_json(live).dump() << '\n';
  }
  EXPECT_EQ(watch_progress(stuck.path(), 10, stderr, /*max_polls=*/3), 1);
}

TEST(ProgressWatch, ToleratesTornFinalHeartbeat) {
  const ProgressSample live = make_sample();
  ProgressSample fin = live;
  fin.done = true;
  fin.complete = true;
  const std::string fin_line = progress_to_json(fin).dump() + "\n";
  const std::string head = fin_line.substr(0, fin_line.size() / 2);
  const std::string tail = fin_line.substr(fin_line.size() / 2);

  // A file ending in a torn heartbeat: the fragment must be skipped (not
  // parsed, not mistaken for done) and the watch must keep tailing until
  // max_polls, exactly as if the fragment were absent.
  TempFile torn("torn");
  {
    std::ofstream out(torn.path());
    out << progress_to_json(live).dump() << '\n' << head;
  }
  EXPECT_EQ(watch_progress(torn.path(), 10, stderr, /*max_polls=*/3), 1);

  // The same torn file healed mid-watch: a writer completes the line while
  // the watch is polling. The watch must stitch the fragment to its tail
  // and terminate on the now-whole done=true record.
  TempFile healed("healed");
  {
    std::ofstream out(healed.path());
    out << progress_to_json(live).dump() << '\n' << head;
  }
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::ofstream out(healed.path(), std::ios::app);
    out << tail;
  });
  EXPECT_EQ(watch_progress(healed.path(), 10, stderr, /*max_polls=*/100), 0);
  writer.join();
}

}  // namespace
}  // namespace blunt::exp
