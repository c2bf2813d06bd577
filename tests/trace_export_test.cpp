// Round-trip tests for the structured trace export (JSONL and Chrome trace
// events) and the JSON document model underneath it.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "obs/json.hpp"
#include "objects/abd.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt::obs {
namespace {

/// A real adversarially-scheduled ABD run: spawns, sends, deliveries,
/// randoms, waits, calls, and returns all appear in the trace. `cfg` lets
/// individual tests run the same workload at reduced trace detail or with
/// the profiler on.
std::unique_ptr<sim::World> make_abd_run(std::uint64_t seed,
                                         sim::Config cfg = sim::Config{}) {
  auto w = std::make_unique<sim::World>(
      cfg, std::make_unique<sim::SeededCoin>(seed));
  auto reg = std::make_shared<objects::AbdRegister>(
      "R", *w,
      objects::AbdRegister::Options{.num_processes = 3,
                                    .preamble_iterations = 2});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg->write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg->read(p);
                   });
  }
  sim::UniformAdversary adv(seed + 5);
  const sim::RunResult res = w->run(adv);
  EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  return w;
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,null,true,"x"],"b":{"nested":-7},"s":"q\"\\\nA"})";
  const Json j = Json::parse(doc);
  EXPECT_EQ(j.at("a").as_array().size(), 5u);
  EXPECT_TRUE(j.at("a").as_array()[0].is_int());
  EXPECT_TRUE(j.at("a").as_array()[1].is_double());
  EXPECT_TRUE(j.at("a").as_array()[2].is_null());
  EXPECT_EQ(j.at("b").at("nested").as_int(), -7);
  EXPECT_EQ(j.at("s").as_string(), "q\"\\\nA");
  // dump -> parse is the identity.
  EXPECT_EQ(Json::parse(j.dump()), j);
  EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, IntegersSurviveExactly) {
  const std::int64_t big = 123456789012345678;
  const Json j = Json::parse(Json(big).dump());
  ASSERT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), big);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("42 garbage"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const Json j(std::string("text"));
  EXPECT_THROW((void)j.as_int(), std::runtime_error);
  EXPECT_THROW((void)j.at("k"), std::runtime_error);
  const Json o = Json::parse("{}");
  EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(ValueJson, RoundTripsEveryAlternative) {
  const sim::Value cases[] = {
      sim::Value{},                                    // ⊥ -> null
      sim::Value(std::int64_t{42}),
      sim::Value(std::string("hello")),
      sim::Value(std::vector<std::int64_t>{1, 2, 3}),
  };
  for (const sim::Value& v : cases) {
    EXPECT_EQ(value_from_json(value_to_json(v)), v);
  }
}

TEST(StepKindString, RoundTripsAllKinds) {
  for (int k = 0; k < sim::kNumStepKinds; ++k) {
    const sim::StepKind kind = static_cast<sim::StepKind>(k);
    EXPECT_EQ(step_kind_from_string(sim::to_string(kind)), kind);
  }
  EXPECT_THROW((void)step_kind_from_string("no-such-kind"),
               std::runtime_error);
}

TEST(Jsonl, RoundTripsARealRun) {
  const auto w = make_abd_run(7);
  const sim::Trace& t = w->trace();
  ASSERT_GT(t.size(), 20);

  const std::string jsonl = trace_to_jsonl(t);
  const sim::Trace back = trace_from_jsonl(jsonl);
  ASSERT_EQ(back.size(), t.size());
  for (int i = 0; i < t.size(); ++i) {
    const sim::TraceEntry& a = t.entries()[static_cast<std::size_t>(i)];
    const sim::TraceEntry& b = back.entries()[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.sched_step, b.sched_step);
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.what, b.what);
    EXPECT_EQ(a.inv, b.inv);
    EXPECT_EQ(a.value, b.value);
  }
  // Serializing the round-tripped trace reproduces the bytes.
  EXPECT_EQ(trace_to_jsonl(back), jsonl);
}

TEST(Jsonl, RejectsNonDenseIndices) {
  const auto w = make_abd_run(3);
  std::string jsonl = trace_to_jsonl(w->trace());
  // Drop the first line: indices now start at 1, which must be rejected.
  jsonl.erase(0, jsonl.find('\n') + 1);
  EXPECT_THROW((void)trace_from_jsonl(jsonl), std::runtime_error);
}

TEST(ChromeTrace, IsAValidEventArray) {
  const auto w = make_abd_run(11);
  const std::string text = chrome_trace_json(*w);
  const Json doc = Json::parse(text);
  ASSERT_TRUE(doc.is_array());

  int metadata = 0, slices = 0, instants = 0, pending = 0;
  for (const Json& e : doc.as_array()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(e.at("pid").is_int());
    ASSERT_TRUE(e.at("tid").is_int());
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
    } else if (ph == "X") {
      ++slices;
      EXPECT_GE(e.at("ts").as_int(), 0);
      EXPECT_GT(e.at("dur").as_int(), 0);
      if (e.at("args").at("pending").as_bool()) ++pending;
    } else if (ph == "i") {
      ++instants;
      EXPECT_GE(e.at("ts").as_int(), 0);
    } else {
      ADD_FAILURE() << "unexpected event phase " << ph;
    }
  }
  EXPECT_EQ(metadata, w->process_count());
  EXPECT_EQ(slices, static_cast<int>(w->invocations().size()));
  EXPECT_EQ(pending, 0);  // the run completed; no open invocation slices
  EXPECT_EQ(instants, w->trace().size());
}

TEST(ChromeTrace, DegradesGracefullyAtNoneDetail) {
  // kNone materializes no entries at all (the Monte-Carlo hot path): the
  // instants vanish, but the invocation slices and per-process tracks —
  // read from the world, not the trace — survive, and trace indices still
  // advance so the slices keep meaningful extents.
  const auto w = make_abd_run(
      11, sim::Config{.trace_detail = sim::TraceDetail::kNone});
  ASSERT_TRUE(w->trace().entries().empty());
  ASSERT_GT(w->trace().size(), 0);  // counted, not stored
  const Json doc = Json::parse(chrome_trace_json(*w));
  ASSERT_TRUE(doc.is_array());
  int metadata = 0, slices = 0, instants = 0;
  for (const Json& e : doc.as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") ++metadata;
    if (ph == "X") {
      ++slices;
      EXPECT_GT(e.at("dur").as_int(), 0);
    }
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(metadata, w->process_count());
  EXPECT_EQ(slices, static_cast<int>(w->invocations().size()));
  EXPECT_EQ(instants, 0);
  // An empty trace exports as empty JSONL and loads back as empty — no
  // throw, no phantom entries.
  EXPECT_EQ(trace_to_jsonl(w->trace()), "");
  EXPECT_EQ(trace_from_jsonl("").size(), 0);
}

TEST(ChromeTrace, ProfiledRunCarriesProfilerTrack) {
  // With Config::profile on, the export grows a second pid (the profiler
  // track): one thread-name metadata + one slice per phase with calls > 0,
  // carrying exact call counts in args. An unprofiled run must not have any
  // pid-1 events (checked implicitly by the exact counts in the tests
  // above).
  const auto w = make_abd_run(11, sim::Config{.profile = true});
  ASSERT_NE(w->profiler(), nullptr);
  const Json doc = Json::parse(chrome_trace_json(*w));
  int prof_meta = 0, prof_slices = 0;
  bool saw_enabled_scan = false;
  for (const Json& e : doc.as_array()) {
    if (e.at("pid").as_int() != 1) continue;
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") ++prof_meta;
    if (ph == "X") {
      ++prof_slices;
      EXPECT_EQ(e.at("cat").as_string(), "profile");
      EXPECT_GT(e.at("args").at("calls").as_int(), 0);
      if (e.at("name").as_string() == "enabled_scan") saw_enabled_scan = true;
    }
  }
  EXPECT_GT(prof_slices, 0);
  EXPECT_EQ(prof_meta, prof_slices);  // one named track per emitted phase
  EXPECT_TRUE(saw_enabled_scan);
}

TEST(WriteTextFile, WritesAndOverwrites) {
  const std::string path = "trace_export_test_tmp.txt";
  write_text_file(path, "first");
  write_text_file(path, "second");
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), "second");
  std::remove(path.c_str());
}

TEST(WriteTextFile, ThrowsOnUnwritablePath) {
  EXPECT_THROW(write_text_file("/no/such/dir/file.txt", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace blunt::obs
