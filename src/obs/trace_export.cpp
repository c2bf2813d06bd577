#include "obs/trace_export.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <utility>

namespace blunt::obs {

namespace {

constexpr std::array<sim::StepKind, 13> kAllStepKinds = {
    sim::StepKind::kSpawn,      sim::StepKind::kLocal,
    sim::StepKind::kRegisterRead, sim::StepKind::kRegisterWrite,
    sim::StepKind::kSend,       sim::StepKind::kDeliver,
    sim::StepKind::kRandom,     sim::StepKind::kWaitResume,
    sim::StepKind::kCall,       sim::StepKind::kReturn,
    sim::StepKind::kCrash,      sim::StepKind::kFault,
    sim::StepKind::kTick,
};

}  // namespace

Json value_to_json(const sim::Value& v) {
  if (std::holds_alternative<sim::Bottom>(v)) return Json(nullptr);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return Json(*i);
  if (const auto* s = std::get_if<std::string>(&v)) return Json(*s);
  const auto& vec = std::get<std::vector<std::int64_t>>(v);
  JsonArray arr;
  arr.reserve(vec.size());
  for (const std::int64_t x : vec) arr.emplace_back(x);
  return Json(std::move(arr));
}

sim::Value value_from_json(const Json& j) {
  if (j.is_null()) return sim::Value{};
  if (j.is_number()) return sim::Value(j.as_int());
  if (j.is_string()) return sim::Value(j.as_string());
  if (j.is_array()) {
    std::vector<std::int64_t> vec;
    vec.reserve(j.as_array().size());
    for (const Json& x : j.as_array()) vec.push_back(x.as_int());
    return sim::Value(std::move(vec));
  }
  throw std::runtime_error("value_from_json: unsupported JSON kind");
}

sim::StepKind step_kind_from_string(const std::string& s) {
  for (const sim::StepKind k : kAllStepKinds) {
    if (s == sim::to_string(k)) return k;
  }
  throw std::runtime_error("unknown StepKind \"" + s + "\"");
}

Json trace_entry_to_json(const sim::TraceEntry& e) {
  JsonObject o;
  o["index"] = Json(e.index);
  o["step"] = Json(e.sched_step);
  o["pid"] = Json(static_cast<std::int64_t>(e.pid));
  o["kind"] = Json(sim::to_string(e.kind));
  o["what"] = Json(e.what);
  o["inv"] = Json(static_cast<std::int64_t>(e.inv));
  o["value"] = value_to_json(e.value);
  return Json(std::move(o));
}

sim::TraceEntry trace_entry_from_json(const Json& j) {
  sim::TraceEntry e;
  e.index = static_cast<int>(j.at("index").as_int());
  e.sched_step = static_cast<int>(j.at("step").as_int());
  e.pid = static_cast<Pid>(j.at("pid").as_int());
  e.kind = step_kind_from_string(j.at("kind").as_string());
  e.what = j.at("what").as_string();
  e.inv = static_cast<InvocationId>(j.at("inv").as_int());
  e.value = value_from_json(j.at("value"));
  return e;
}

std::string trace_to_jsonl(const sim::Trace& t) {
  std::string out;
  for (const sim::TraceEntry& e : t.entries()) {
    out += trace_entry_to_json(e).dump();
    out.push_back('\n');
  }
  return out;
}

sim::Trace trace_from_jsonl(const std::string& jsonl) {
  sim::Trace t;
  std::istringstream is(jsonl);
  std::string line;
  int expected = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const sim::TraceEntry e = trace_entry_from_json(Json::parse(line));
    if (e.index != expected) {
      throw std::runtime_error("trace_from_jsonl: entry " +
                               std::to_string(expected) + " carries index " +
                               std::to_string(e.index));
    }
    // Trace::append stamps index (dense) and sched_step (from the trace's
    // current step) itself; replaying set_sched_step reproduces both.
    t.set_sched_step(e.sched_step);
    t.append(e);
    ++expected;
  }
  return t;
}

Json chrome_trace_events(const sim::World& w) {
  JsonArray events;

  // Thread-name metadata: one named track per simulated process.
  for (Pid pid = 0; pid < w.process_count(); ++pid) {
    JsonObject m;
    m["ph"] = Json("M");
    m["name"] = Json("thread_name");
    m["pid"] = Json(0);
    m["tid"] = Json(static_cast<std::int64_t>(pid));
    JsonObject args;
    std::string name = "p";
    name += std::to_string(pid);
    name += ' ';
    name += w.process_name(pid);
    args["name"] = Json(std::move(name));
    m["args"] = Json(std::move(args));
    events.emplace_back(std::move(m));
  }

  // Invocations as complete slices. ts/dur are trace indices: the
  // simulator's logical time. Pending invocations extend to the trace end.
  const int trace_end = w.trace().size();
  for (const sim::InvocationRecord& rec : w.invocations()) {
    JsonObject x;
    x["ph"] = Json("X");
    x["name"] = Json(rec.object_name + "." + rec.method);
    x["cat"] = Json("invocation");
    x["pid"] = Json(0);
    x["tid"] = Json(static_cast<std::int64_t>(rec.pid));
    x["ts"] = Json(static_cast<std::int64_t>(rec.call_index));
    const int end = rec.return_index >= 0 ? rec.return_index : trace_end;
    x["dur"] = Json(static_cast<std::int64_t>(end - rec.call_index));
    JsonObject args;
    args["inv"] = Json(static_cast<std::int64_t>(rec.id));
    args["argument"] = value_to_json(rec.argument);
    args["result"] =
        rec.result.has_value() ? value_to_json(*rec.result) : Json(nullptr);
    args["pending"] = Json(!rec.result.has_value());
    x["args"] = Json(std::move(args));
    events.emplace_back(std::move(x));
  }

  // Profiled worlds get a separate profiler track (its own pid so viewers
  // group it apart from the simulated processes): one complete slice per
  // phase with calls, carrying the aggregate stats as args. ts/dur here are
  // real nanoseconds, not trace indices — the track is advisory wall-clock
  // attribution, unlike the logical-time tracks above.
  if (const Profiler* prof = w.profiler(); prof != nullptr) {
    const ProfileSnapshot& snap = prof->snapshot();
    for (int p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      const PhaseStat& st = snap.phase(phase);
      if (st.calls == 0) continue;
      JsonObject m;
      m["ph"] = Json("M");
      m["name"] = Json("thread_name");
      m["pid"] = Json(1);
      m["tid"] = Json(static_cast<std::int64_t>(p));
      JsonObject margs;
      margs["name"] = Json(std::string("profile ") + phase_name(phase));
      m["args"] = Json(std::move(margs));
      events.emplace_back(std::move(m));

      JsonObject x;
      x["ph"] = Json("X");
      x["name"] = Json(phase_name(phase));
      x["cat"] = Json("profile");
      x["pid"] = Json(1);
      x["tid"] = Json(static_cast<std::int64_t>(p));
      x["ts"] = Json(0);
      x["dur"] = Json(st.ns);
      JsonObject args;
      args["calls"] = Json(st.calls);
      args["ns"] = Json(st.ns);
      x["args"] = Json(std::move(args));
      events.emplace_back(std::move(x));
    }
  }

  // Every trace entry as an instant event on its process track.
  for (const sim::TraceEntry& e : w.trace().entries()) {
    JsonObject i;
    i["ph"] = Json("i");
    i["s"] = Json("t");  // thread-scoped instant
    i["name"] = Json(std::string(sim::to_string(e.kind)) + ": " + e.what);
    i["cat"] = Json(sim::to_string(e.kind));
    i["pid"] = Json(0);
    i["tid"] = Json(static_cast<std::int64_t>(e.pid));
    i["ts"] = Json(static_cast<std::int64_t>(e.index));
    JsonObject args;
    args["sched_step"] = Json(static_cast<std::int64_t>(e.sched_step));
    args["inv"] = Json(static_cast<std::int64_t>(e.inv));
    args["value"] = value_to_json(e.value);
    i["args"] = Json(std::move(args));
    events.emplace_back(std::move(i));
  }

  return Json(std::move(events));
}

std::string chrome_trace_json(const sim::World& w) {
  return chrome_trace_events(w).dump(1);
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os << content;
  if (!os) throw std::runtime_error("short write to " + path);
}

}  // namespace blunt::obs
