#include "fuzz/corpus.hpp"

#include "obs/coverage.hpp"
#include "obs/lockfile.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace blunt::fuzz {

namespace {

constexpr const char* kEntrySchema = "blunt-fuzz-corpus-entry";
constexpr const char* kViolationSchema = "blunt-fuzz-violation";

const char* kind_name(sim::Event::Kind k) {
  switch (k) {
    case sim::Event::Kind::kResume: return "resume";
    case sim::Event::Kind::kDeliver: return "deliver";
    case sim::Event::Kind::kCrash: return "crash";
    case sim::Event::Kind::kTick: return "tick";
  }
  return "resume";
}

sim::Event::Kind kind_from_name(const std::string& s) {
  if (s == "resume") return sim::Event::Kind::kResume;
  if (s == "deliver") return sim::Event::Kind::kDeliver;
  if (s == "crash") return sim::Event::Kind::kCrash;
  if (s == "tick") return sim::Event::Kind::kTick;
  throw std::runtime_error("fuzz corpus: unknown event kind \"" + s + "\"");
}

obs::Json schedule_to_json(
    const std::vector<adversary::EventDescriptor>& schedule) {
  obs::JsonArray arr;
  arr.reserve(schedule.size());
  for (const adversary::EventDescriptor& d : schedule) {
    obs::JsonObject o;
    o["k"] = obs::Json(std::string(kind_name(d.kind)));
    o["p"] = obs::Json(static_cast<std::int64_t>(d.pid));
    o["s"] = obs::Json(static_cast<std::int64_t>(d.source_id));
    o["w"] = obs::Json(d.what);
    arr.emplace_back(std::move(o));
  }
  return obs::Json(std::move(arr));
}

std::vector<adversary::EventDescriptor> schedule_from_json(
    const obs::Json& j) {
  std::vector<adversary::EventDescriptor> out;
  for (const obs::Json& e : j.as_array()) {
    adversary::EventDescriptor d;
    d.kind = kind_from_name(e.at("k").as_string());
    d.pid = static_cast<Pid>(e.at("p").as_int());
    d.source_id = static_cast<int>(e.at("s").as_int());
    d.what = e.at("w").as_string();
    out.push_back(std::move(d));
  }
  return out;
}

obs::Json script_to_json(const std::vector<int>& script) {
  obs::JsonArray arr;
  arr.reserve(script.size());
  for (const int v : script) arr.emplace_back(static_cast<std::int64_t>(v));
  return obs::Json(std::move(arr));
}

std::vector<int> script_from_json(const obs::Json& j) {
  std::vector<int> out;
  for (const obs::Json& v : j.as_array()) {
    out.push_back(static_cast<int>(v.as_int()));
  }
  return out;
}

/// FNV-1a running hash over the replay-relevant content of a record. The
/// compaction key: platform-independent, insensitive to formatting.
class Fnv {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_str(const std::string& s) {
    add_u64(s.size());
    add_bytes(s.data(), s.size());
  }
  void add_schedule(const std::vector<adversary::EventDescriptor>& sched) {
    add_u64(sched.size());
    for (const adversary::EventDescriptor& d : sched) {
      add_u64(static_cast<std::uint64_t>(d.kind));
      add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.pid)));
      add_u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(d.source_id)));
      add_str(d.what);
    }
  }
  void add_script(const std::vector<int>& s) {
    add_u64(s.size());
    for (const int v : s) {
      add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The torn-line defense: O_APPEND + one write() under the hardened
/// bounded-retry flock (obs/lockfile.hpp — EINTR-safe, contention counted in
/// obs::lock_retries()).
void append_line(const std::string& path, const std::string& line) {
  obs::LockRetryPolicy p;
  p.seed = static_cast<std::uint64_t>(::getpid());
  try {
    obs::locked_append(path, line, p);
  } catch (const std::exception&) {
    throw std::runtime_error("fuzz corpus: append failed for " + path);
  }
}

}  // namespace

std::uint64_t CorpusEntry::key() const {
  Fnv f;
  f.add_str(target);
  f.add_u64(chain_seed);
  f.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(score)));
  f.add_u64(static_cast<std::uint64_t>(execs));
  f.add_script(coin_script);
  f.add_u64(coin_tail_seed);
  f.add_schedule(schedule);
  return f.value();
}

std::uint64_t ViolationRecord::key() const {
  Fnv f;
  f.add_str(target);
  f.add_str(kind);
  f.add_u64(chain_seed);
  f.add_u64(static_cast<std::uint64_t>(execs_to_find));
  f.add_script(coin_script);
  f.add_u64(coin_tail_seed);
  f.add_u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(prefix_len)));
  f.add_u64(prefix_hash);
  f.add_schedule(schedule);
  f.add_schedule(shrunk);
  f.add_str(repro);
  return f.value();
}

obs::Json entry_to_json(const CorpusEntry& e) {
  obs::JsonObject o;
  o["schema"] = obs::Json(std::string(kEntrySchema));
  o["schema_version"] = obs::Json(std::int64_t{1});
  o["target"] = obs::Json(e.target);
  o["chain_seed"] = obs::Json(static_cast<std::int64_t>(e.chain_seed));
  o["score"] = obs::Json(static_cast<std::int64_t>(e.score));
  o["execs"] = obs::Json(e.execs);
  o["coin_script"] = script_to_json(e.coin_script);
  o["coin_tail_seed"] =
      obs::Json(static_cast<std::int64_t>(e.coin_tail_seed));
  o["schedule"] = schedule_to_json(e.schedule);
  return obs::Json(std::move(o));
}

CorpusEntry entry_from_json(const obs::Json& j) {
  CorpusEntry e;
  e.target = j.at("target").as_string();
  e.chain_seed = static_cast<std::uint64_t>(j.at("chain_seed").as_int());
  e.score = static_cast<int>(j.at("score").as_int());
  e.execs = j.at("execs").as_int();
  e.coin_script = script_from_json(j.at("coin_script"));
  e.coin_tail_seed =
      static_cast<std::uint64_t>(j.at("coin_tail_seed").as_int());
  e.schedule = schedule_from_json(j.at("schedule"));
  return e;
}

obs::Json violation_to_json(const ViolationRecord& v) {
  obs::JsonObject o;
  o["schema"] = obs::Json(std::string(kViolationSchema));
  o["schema_version"] = obs::Json(std::int64_t{1});
  o["target"] = obs::Json(v.target);
  o["kind"] = obs::Json(v.kind);
  o["chain_seed"] = obs::Json(static_cast<std::int64_t>(v.chain_seed));
  o["execs_to_find"] = obs::Json(v.execs_to_find);
  o["coin_script"] = script_to_json(v.coin_script);
  o["coin_tail_seed"] =
      obs::Json(static_cast<std::int64_t>(v.coin_tail_seed));
  o["prefix_len"] = obs::Json(static_cast<std::int64_t>(v.prefix_len));
  o["prefix_hash"] = obs::Json(obs::fingerprint_to_hex(v.prefix_hash));
  o["schedule"] = schedule_to_json(v.schedule);
  o["shrunk"] = schedule_to_json(v.shrunk);
  o["repro"] = obs::Json(v.repro);
  return obs::Json(std::move(o));
}

ViolationRecord violation_from_json(const obs::Json& j) {
  ViolationRecord v;
  v.target = j.at("target").as_string();
  v.kind = j.at("kind").as_string();
  v.chain_seed = static_cast<std::uint64_t>(j.at("chain_seed").as_int());
  v.execs_to_find = j.at("execs_to_find").as_int();
  v.coin_script = script_from_json(j.at("coin_script"));
  v.coin_tail_seed =
      static_cast<std::uint64_t>(j.at("coin_tail_seed").as_int());
  v.prefix_len = static_cast<int>(j.at("prefix_len").as_int());
  v.prefix_hash = obs::fingerprint_from_hex(j.at("prefix_hash").as_string());
  v.schedule = schedule_from_json(j.at("schedule"));
  v.shrunk = schedule_from_json(j.at("shrunk"));
  v.repro = j.at("repro").as_string();
  return v;
}

void append_entry(const std::string& path, const CorpusEntry& e) {
  append_line(path, entry_to_json(e).dump() + "\n");
}

void append_violation(const std::string& path, const ViolationRecord& v) {
  append_line(path, violation_to_json(v).dump() + "\n");
}

Corpus load_corpus(const std::string& path) {
  Corpus c;
  std::ifstream in(path);
  if (!in) return c;  // missing journal: empty corpus
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const obs::Json j = obs::Json::parse(line);
      const obs::Json* schema = j.find("schema");
      if (schema == nullptr || !schema->is_string()) {
        ++c.skipped_lines;
        continue;
      }
      if (schema->as_string() == kEntrySchema) {
        c.entries.push_back(entry_from_json(j));
      } else if (schema->as_string() == kViolationSchema) {
        c.violations.push_back(violation_from_json(j));
      } else {
        ++c.skipped_lines;
      }
    } catch (const std::exception&) {
      ++c.skipped_lines;  // torn / corrupted line: skip, never crash
    }
  }
  return c;
}

void compact(Corpus& c) {
  // Dedupe on the content key, then order by content. The key is included
  // as the final tiebreak so distinct records that compare equal on the
  // human-readable fields still order deterministically.
  const auto entry_rank = [](const CorpusEntry& e) {
    return std::make_tuple(e.target, e.chain_seed, e.execs, e.score,
                           e.key());
  };
  std::sort(c.entries.begin(), c.entries.end(),
            [&](const CorpusEntry& a, const CorpusEntry& b) {
              return entry_rank(a) < entry_rank(b);
            });
  c.entries.erase(std::unique(c.entries.begin(), c.entries.end(),
                              [](const CorpusEntry& a, const CorpusEntry& b) {
                                return a.key() == b.key();
                              }),
                  c.entries.end());
  const auto viol_rank = [](const ViolationRecord& v) {
    return std::make_tuple(v.target, v.kind, v.chain_seed, v.execs_to_find,
                           v.key());
  };
  std::sort(c.violations.begin(), c.violations.end(),
            [&](const ViolationRecord& a, const ViolationRecord& b) {
              return viol_rank(a) < viol_rank(b);
            });
  c.violations.erase(
      std::unique(c.violations.begin(), c.violations.end(),
                  [](const ViolationRecord& a, const ViolationRecord& b) {
                    return a.key() == b.key();
                  }),
      c.violations.end());
  c.skipped_lines = 0;
}

void write_compacted(const Corpus& c, const std::string& path) {
  Corpus canon = c;
  compact(canon);
  std::ostringstream out;
  for (const CorpusEntry& e : canon.entries) {
    out << entry_to_json(e).dump() << "\n";
  }
  for (const ViolationRecord& v : canon.violations) {
    out << violation_to_json(v).dump() << "\n";
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) throw std::runtime_error("fuzz corpus: cannot write " + tmp);
    f << out.str();
    if (!f.flush()) {
      throw std::runtime_error("fuzz corpus: flush failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("fuzz corpus: rename failed for " + path);
  }
}

}  // namespace blunt::fuzz
