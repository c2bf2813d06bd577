#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <string_view>

#include "common/assert.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "obs/fingerprint.hpp"
#include "programs/weakener.hpp"

namespace blunt::fuzz {

// ---------------------------------------------------------------------------
// PrefixThenBiased

std::size_t PrefixThenBiased::choose(const sim::World& w,
                                     const sim::EnabledView& enabled) {
  (void)w;
  while (pos_ < prefix_.size()) {
    const auto& d = prefix_[pos_];
    std::size_t i = 0;
    for (const sim::Event& e : enabled) {
      if (adversary::matches(d, e)) {
        ++pos_;
        return i;
      }
      ++i;
    }
    ++pos_;
    ++skipped_;
  }
  r_events_.clear();
  std::size_t i = 0;
  for (const sim::Event& e : enabled) {
    if (e.kind == sim::Event::Kind::kDeliver && e.what.substr(0, 2) == "R ") {
      r_events_.push_back(i);
    }
    ++i;
  }
  if (!r_events_.empty() && (rng_() & 3u) != 0) {
    return r_events_[rng_() % r_events_.size()];
  }
  return rng_() % enabled.size();
}

// ---------------------------------------------------------------------------
// Prefix hashing

std::uint64_t schedule_prefix_hash(
    const std::vector<adversary::EventDescriptor>& schedule, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) mix_byte((v >> (8 * k)) & 0xffu);
  };
  if (len > schedule.size()) len = schedule.size();
  mix_u64(len);
  for (std::size_t i = 0; i < len; ++i) {
    const adversary::EventDescriptor& d = schedule[i];
    mix_u64(static_cast<std::uint64_t>(d.kind));
    mix_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.pid)));
    mix_u64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(d.source_id)));
    mix_u64(d.what.size());
    for (const char c : d.what) mix_byte(static_cast<unsigned char>(c));
  }
  return h;
}

// ---------------------------------------------------------------------------
// SeedPool

bool SeedPool::offer(const std::vector<adversary::EventDescriptor>& schedule,
                     int score, bool fresh_coverage, FuzzRng& rng) {
  const int best = seeds_.empty() ? score - 1 : best_score();
  bool admit = false;
  if (score > best) {
    admit = true;
  } else if (score == best && fresh_coverage) {
    admit = true;
  } else if (score + 1 >= best && fresh_coverage && rng.below(4) == 0) {
    admit = true;
  }
  if (!admit) return false;
  Seed s;
  s.schedule = schedule;
  s.score = score;
  s.fresh = fresh_coverage;
  s.stamp = ++stamps_;
  seeds_.push_back(std::move(s));
  if (seeds_.size() > capacity_) {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < seeds_.size(); ++i) {
      const Seed& a = seeds_[i];
      const Seed& w = seeds_[worst];
      if (a.score < w.score || (a.score == w.score && a.stamp < w.stamp)) {
        worst = i;
      }
    }
    seeds_.erase(seeds_.begin() + static_cast<std::ptrdiff_t>(worst));
  }
  return true;
}

long SeedPool::weight(const Seed& s, int best) const {
  int deficit = best - s.score;
  if (deficit > 3) deficit = 3;
  if (deficit < 0) deficit = 0;
  long w = 8L >> deficit;  // 8 / 4 / 2 / 1 by score deficit
  if (s.fresh) w *= 2;
  w >>= std::min(s.picks, 3);  // aging: each pick halves the energy
  return w < 1 ? 1 : w;
}

std::vector<adversary::EventDescriptor> SeedPool::pick(FuzzRng& rng) {
  BLUNT_ASSERT(!seeds_.empty(), "SeedPool::pick on an empty pool");
  const int best = best_score();
  long total = 0;
  for (const Seed& s : seeds_) total += weight(s, best);
  long r = static_cast<long>(rng.next() % static_cast<std::uint64_t>(total));
  for (Seed& s : seeds_) {
    r -= weight(s, best);
    if (r < 0) {
      ++s.picks;
      return s.schedule;
    }
  }
  ++seeds_.back().picks;
  return seeds_.back().schedule;
}

std::vector<adversary::EventDescriptor> SeedPool::donor(FuzzRng& rng) const {
  if (seeds_.size() < 2) return {};
  return seeds_[rng.below(seeds_.size())].schedule;
}

int SeedPool::best_score() const {
  int best = -1;
  for (const Seed& s : seeds_) best = std::max(best, s.score);
  return best;
}

const std::vector<adversary::EventDescriptor>& SeedPool::best_schedule()
    const {
  BLUNT_ASSERT(!seeds_.empty(), "SeedPool::best_schedule on an empty pool");
  const Seed* b = &seeds_[0];
  for (const Seed& s : seeds_) {
    if (s.score > b->score || (s.score == b->score && s.stamp > b->stamp)) {
      b = &s;
    }
  }
  return b->schedule;
}

namespace {

// ---------------------------------------------------------------------------
// Shared novelty recording: fold one fingerprinted run into the chain's
// coverage sets; true iff ANY family saw a new fingerprint.

bool record_novelty(obs::CoverageMap& schedules, obs::CoverageMap& ngrams,
                    obs::CoverageMap& objects,
                    const obs::ScheduleFingerprinter& fp,
                    const sim::World& w) {
  bool fresh = schedules.insert(fp.schedule_hash());
  for (const std::uint64_t h : fp.ngrams().sorted()) {
    if (ngrams.insert(h)) fresh = true;
  }
  for (const std::uint64_t h : obs::object_transition_fingerprints(w)) {
    if (objects.insert(h)) fresh = true;
  }
  return fresh;
}

// ---------------------------------------------------------------------------
// abd_bug target (planted AbdBug::kSubMajorityQuorum; n=5, 1 writer + 4
// single-shot readers, fault-free)

struct AbdBuilt {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> reg;
};

AbdBuilt build_abd(std::unique_ptr<sim::CoinSource> coin) {
  AbdBuilt b;
  b.world = std::make_unique<sim::World>(sim::Config{}, std::move(coin));
  b.reg = std::make_unique<objects::AbdRegister>(
      "R", *b.world,
      objects::AbdRegister::Options{
          .num_processes = 5, .bug = objects::AbdBug::kSubMajorityQuorum});
  objects::AbdRegister& reg = *b.reg;
  b.world->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{7}));
  });
  for (int pid = 1; pid < 5; ++pid) {
    b.world->add_process("r", [&reg](sim::Proc p) -> sim::Task<void> {
      (void)co_await reg.read(p);
    });
  }
  return b;
}

bool abd_lin_ok(const sim::World& w) {
  lin::RegisterSpec spec;
  return lin::check_linearizable(lin::History::from_world(w), spec)
      .linearizable;
}

// Gradient toward a stale read: +1 write returned, +1 a read called after
// the write returned, +1 such a late read was delivered a ⊥ reply, +2 lin
// violation.
int abd_score_run(const sim::World& w, bool viol) {
  int write_ret = -1;
  for (const auto& inv : w.invocations()) {
    if (inv.pid == 0 && inv.method == "Write" && inv.result.has_value()) {
      write_ret = inv.return_index;
    }
  }
  if (write_ret < 0) return viol ? 2 : 0;
  bool late = false, stale_reply = false;
  for (const auto& inv : w.invocations()) {
    if (inv.method != "Read" || inv.call_index <= write_ret) continue;
    late = true;
    for (const auto& e : w.trace().entries()) {
      if (e.kind == sim::StepKind::kDeliver && e.pid == inv.pid &&
          e.index > inv.call_index &&
          (!inv.result.has_value() || e.index < inv.return_index) &&
          e.what.find("R reply") != std::string::npos &&
          e.what.find("val=⊥") != std::string::npos) {
        stale_reply = true;
      }
    }
  }
  return 1 + (late ? 1 : 0) + (stale_reply ? 1 : 0) + (viol ? 2 : 0);
}

// ---------------------------------------------------------------------------
// figure1 target (the paper's weakener; n=3, truncated retransmits)

struct Fig1Built {
  std::unique_ptr<sim::World> world;
  std::vector<std::shared_ptr<void>> owned;
  programs::WeakenerOutcome* out = nullptr;
};

Fig1Built build_fig1(std::unique_ptr<sim::CoinSource> coin) {
  Fig1Built b;
  b.world = std::make_unique<sim::World>(sim::Config{}, std::move(coin));
  auto r = std::make_shared<objects::AbdRegister>(
      "R", *b.world,
      objects::AbdRegister::Options{.num_processes = 3,
                                    .preamble_iterations = 1,
                                    .max_retransmits = 4});
  auto c = std::make_shared<objects::AbdRegister>(
      "C", *b.world,
      objects::AbdRegister::Options{.num_processes = 3,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = 1,
                                    .max_retransmits = 4});
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*b.world, *r, *c, *out);
  b.owned = {r, c, out};
  b.out = out.get();
  return b;
}

bool is_program_coin_desc(const adversary::EventDescriptor& d) {
  return d.kind == sim::Event::Kind::kResume && d.pid == 1 &&
         d.what.find("program-coin") != std::string::npos;
}

// Parse "sn=N" out of a message summary; -1 if absent.
int parse_sn(std::string_view s) {
  const auto p = s.find("sn=");
  if (p == std::string_view::npos) return -1;
  int v = 0;
  for (std::size_t i = p + 3; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  return v;
}

// Parse the trailing " from pX" responder pid; -1 if absent.
int parse_from(std::string_view s) {
  const auto p = s.rfind("from p");
  if (p == std::string_view::npos) return -1;
  int v = 0;
  for (std::size_t i = p + 6; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  return v;
}

// Wraps an inner adversary; at the program-coin choice, captures the 9-bit
// prefix-qualification gradient and prefix bookkeeping. Also records the
// chosen descriptor sequence (it doubles as the chain's ScheduleRecorder).
struct Spy final : sim::Adversary {
  sim::Adversary& inner;
  const sim::World* w;
  std::vector<adversary::EventDescriptor> chosen;
  std::size_t prefix_len = 0, coin_draw_index = 0;
  bool saw = false;
  // Gradient bits (see score()).
  bool s1 = false, q1 = false, s3 = false, q3 = false;
  bool clean1 = false, clean3 = false, old1 = false, old3 = false;
  bool missed = false;
  Spy(sim::Adversary& in, const sim::World* w_) : inner(in), w(w_) {}
  // +1 read1 started & pending, +1 its query open (resend armed),
  // +1 W0 started & pending,    +1 its query open,
  // +1 read1's phase clean of (1,1) replies, +1 same for W0,
  // +1 old reply (collected or in flight) from a (1,1) replica for read1,
  // +1 same for W0, +1 a replica exists with no (1,1) update delivered.
  [[nodiscard]] int score() const {
    return (s1 ? 1 : 0) + (q1 ? 1 : 0) + (s3 ? 1 : 0) + (q3 ? 1 : 0) +
           (clean1 ? 1 : 0) + (clean3 ? 1 : 0) + (old1 ? 1 : 0) +
           (old3 ? 1 : 0) + (missed ? 1 : 0);
  }
  std::size_t choose(const sim::World& world,
                     const sim::EnabledView& enabled) override {
    const std::size_t idx = inner.choose(world, enabled);
    chosen.push_back(adversary::describe(enabled[idx]));
    if (!saw && is_program_coin_desc(chosen.back())) {
      saw = true;
      prefix_len = chosen.size();
      coin_draw_index = static_cast<std::size_t>(w->random_draws());
      for (const auto& inv : w->invocations()) {
        if (inv.object_name != "R" || inv.result.has_value()) continue;
        if (inv.pid == 2 && inv.method == "Read" && inv.per_process_seq == 0) {
          s1 = true;
        }
        if (inv.pid == 0 && inv.method == "Write") s3 = true;
      }
      // Open query phase certificate + phase sn: the resend token is armed
      // (disarmed on quorum satisfaction), so an enabled resend delivery for
      // pX's query means pX's R operation is still undecided at the coin.
      int sn1 = -1, sn3 = -1;
      for (const auto& e : enabled) {
        if (e.kind != sim::Event::Kind::kDeliver) continue;
        const std::string_view s = e.what;
        if (s.find("R resend query") == std::string_view::npos) continue;
        if (s.find("by p2") != std::string_view::npos) {
          q1 = true;
          sn1 = parse_sn(s);
        }
        if (s.find("by p0") != std::string_view::npos) {
          q3 = true;
          sn3 = parse_sn(s);
        }
      }
      // Which replicas have already received W1's (1,1) update?
      bool fresh_at[3] = {false, false, false};
      for (const auto& e : w->trace().entries()) {
        if (e.kind != sim::StepKind::kDeliver) continue;
        if (e.what.find("R update") != std::string::npos &&
            e.what.find("ts=(1,1)") != std::string::npos && e.pid >= 0 &&
            e.pid < 3) {
          fresh_at[e.pid] = true;
        }
      }
      missed = !(fresh_at[0] && fresh_at[1] && fresh_at[2]);
      // Collected replies: delivered to the reader pre-coin, per phase sn.
      bool dirty1 = false, dirty3 = false;
      auto scan_reply = [&](std::string_view what, int dest) {
        if (what.find("R reply") == std::string_view::npos) return;
        const int sn = parse_sn(what);
        const bool is_fresh =
            what.find("ts=(1,1)") != std::string_view::npos;
        const int from = parse_from(what);
        const bool from_fresh = from >= 0 && from < 3 && fresh_at[from];
        if (dest == 2 && sn == sn1 && sn1 >= 0) {
          if (is_fresh) {
            dirty1 = true;
          } else if (from_fresh) {
            old1 = true;
          }
        }
        if (dest == 0 && sn == sn3 && sn3 >= 0) {
          if (is_fresh) {
            dirty3 = true;
          } else if (from_fresh) {
            old3 = true;
          }
        }
      };
      for (const auto& e : w->trace().entries()) {
        if (e.kind == sim::StepKind::kDeliver) scan_reply(e.what, e.pid);
      }
      // In-flight replies: enabled deliveries to the reader.
      for (const auto& e : enabled) {
        if (e.kind == sim::Event::Kind::kDeliver) scan_reply(e.what, e.pid);
      }
      clean1 = q1 && !dirty1;
      clean3 = q3 && !dirty3;
      old1 = old1 && clean1;
      old3 = old3 && clean3;
    }
    return idx;
  }
};

bool val_is(const sim::Value& v, std::int64_t x) {
  return std::holds_alternative<std::int64_t>(v) &&
         std::get<std::int64_t>(v) == x;
}

// Branch gradient. Success <=> the weakener looped with the forced coin
// (the win bit counts 2, so the goals are 9 for coin=0 and 5 for coin=1).
int branch_score(int bcv, const sim::World& w,
                 const programs::WeakenerOutcome& out) {
  const bool win = out.looped() && out.coin == bcv;
  const int cbit = val_is(out.c, bcv) ? 1 : 0;  // p2 read C = coin value
  if (bcv == 1) {
    return (val_is(out.u1, 1) ? 1 : 0) + (val_is(out.u2, 0) ? 1 : 0) + cbit +
           (win ? 2 : 0);
  }
  // cv=0 choreography, one bit per stage: W0's old-quorum (1,0) write is
  // broadcast; it lands on a replica that never sees W1's (1,1) (the plant);
  // read1 is still open when the plant lands; read1 receives a (1,0) reply;
  // u1 = 0; u2 = 1; looped.
  bool wrote10 = false, got10[3] = {false, false, false},
       got11[3] = {false, false, false}, reply10 = false;
  int plant_index[3] = {-1, -1, -1};
  for (const auto& e : w.trace().entries()) {
    if (e.kind != sim::StepKind::kDeliver || e.pid < 0 || e.pid > 2) continue;
    const bool is10 = e.what.find("ts=(1,0)") != std::string::npos;
    if (e.what.find("R update") != std::string::npos) {
      if (is10) {
        wrote10 = true;
        got10[e.pid] = true;
        if (plant_index[e.pid] < 0) plant_index[e.pid] = e.index;
      }
      if (e.what.find("ts=(1,1)") != std::string::npos) got11[e.pid] = true;
    } else if (e.pid == 2 && is10 &&
               e.what.find("R reply") != std::string::npos) {
      reply10 = true;
    }
  }
  int plant_at = -1;
  for (int r = 0; r < 3; ++r) {
    if (got10[r] && !got11[r] && (plant_at < 0 || plant_index[r] < plant_at)) {
      plant_at = plant_index[r];
    }
  }
  bool open_at_plant = false;
  if (plant_at >= 0) {
    for (const auto& inv : w.invocations()) {
      if (inv.object_name == "R" && inv.pid == 2 && inv.method == "Read" &&
          inv.per_process_seq == 0 && inv.call_index < plant_at &&
          (!inv.result.has_value() || inv.return_index > plant_at)) {
        open_at_plant = true;
      }
    }
  }
  return (wrote10 ? 1 : 0) + (plant_at >= 0 ? 1 : 0) + (open_at_plant ? 1 : 0) +
         (reply10 ? 1 : 0) + (val_is(out.u1, 0) ? 1 : 0) +
         (val_is(out.u2, 1) ? 1 : 0) + cbit + (win ? 2 : 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// Replay predicates

AbdReplayOutcome replay_abd_bug(
    const std::vector<adversary::EventDescriptor>& schedule,
    const std::vector<int>& coin_script, std::uint64_t coin_tail_seed) {
  AbdBuilt b = build_abd(
      std::make_unique<ScriptThenSeededCoin>(coin_script, coin_tail_seed));
  adversary::EventReplayAdversary rep(schedule);
  AbdReplayOutcome o;
  o.status = b.world->run(rep).status;
  o.repairs = rep.repairs();
  o.lin_ok =
      o.status == sim::RunStatus::kCompleted ? abd_lin_ok(*b.world) : true;
  return o;
}

Figure1ReplayOutcome replay_figure1(
    const std::vector<adversary::EventDescriptor>& schedule,
    const std::vector<int>& coin_script, std::uint64_t coin_tail_seed) {
  Fig1Built b = build_fig1(
      std::make_unique<ScriptThenSeededCoin>(coin_script, coin_tail_seed));
  adversary::EventReplayAdversary rep(schedule);
  Figure1ReplayOutcome o;
  o.status = b.world->run(rep).status;
  o.repairs = rep.repairs();
  o.looped = b.out->looped();
  o.coin = b.out->coin;
  return o;
}

// ---------------------------------------------------------------------------
// abd_bug chain

AbdChainResult run_abd_bug_chain(const AbdChainOptions& opts) {
  AbdChainResult res;
  FuzzRng rng(mix64(opts.chain_seed * 3 + 1) + 11);
  SeedPool pool(opts.pool_capacity);
  std::vector<int> draws;

  const auto push_corpus =
      [&](const std::vector<adversary::EventDescriptor>& sched, int score,
          std::uint64_t coin_tail) {
        CorpusEntry e;
        e.target = "abd_bug";
        e.chain_seed = opts.chain_seed;
        e.score = score;
        e.execs = res.execs;
        e.coin_script = draws;
        e.coin_tail_seed = coin_tail;
        e.schedule = sched;
        if (static_cast<int>(res.corpus.size()) >= opts.max_corpus_entries) {
          res.corpus.erase(res.corpus.begin());
        }
        res.corpus.push_back(std::move(e));
      };

  // Pre-verifies the violation under the strict replayer, ddmin-shrinks what
  // reproduces (budgeted), and always emits a scripted repro.
  const auto record_violation =
      [&](const std::string& kind,
          const std::vector<adversary::EventDescriptor>& sched,
          std::uint64_t coin_tail) {
        ViolationRecord v;
        v.target = "abd_bug";
        v.kind = kind;
        v.chain_seed = opts.chain_seed;
        v.execs_to_find = res.execs;
        v.coin_script = draws;
        v.coin_tail_seed = coin_tail;
        v.schedule = sched;
        const bool want_lin = kind == "lin";
        const auto fails =
            [&](const std::vector<adversary::EventDescriptor>& s) {
              const AbdReplayOutcome o = replay_abd_bug(s, draws, coin_tail);
              return want_lin ? (o.status == sim::RunStatus::kCompleted &&
                                 !o.lin_ok)
                              : o.status != sim::RunStatus::kCompleted;
            };
        const AbdReplayOutcome check = replay_abd_bug(sched, draws, coin_tail);
        res.replay_repairs += check.repairs;
        const bool reproduces =
            want_lin
                ? (check.status == sim::RunStatus::kCompleted && !check.lin_ok)
                : check.status != sim::RunStatus::kCompleted;
        if (reproduces) {
          adversary::ShrinkOptions so;
          so.max_evals = opts.shrink_max_evals;
          v.shrunk = adversary::shrink_schedule(fails, sched, so);
        } else {
          // Found under prefix-replay but not strict replay (descriptor
          // ambiguity); keep the as-found schedule as the counterexample.
          v.shrunk = sched;
        }
        v.repro = adversary::to_scripted_program(v.shrunk);
        res.violations.push_back(std::move(v));
      };

  // ---- Seed: one recorded uniform run.
  {
    auto rc = std::make_unique<RecordingCoin>(opts.chain_seed);
    RecordingCoin* rcp = rc.get();
    AbdBuilt b = build_abd(std::move(rc));
    sim::UniformAdversary uni(mix64(opts.chain_seed) + 3);
    ScheduleRecorder rec(uni);
    obs::ScheduleFingerprinter fp(rec);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    draws = rcp->draws();
    const bool fresh =
        record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted) {
      // The target is fault-free, so a stuck seed run is itself a violation.
      record_violation(st == sim::RunStatus::kDeadlock ? "deadlock" : "nonterm",
                       rec.chosen(), 0);
      return res;
    }
    const bool viol = !abd_lin_ok(*b.world);
    res.best_score = abd_score_run(*b.world, viol);
    pool.offer(rec.chosen(), res.best_score, fresh, rng);
    push_corpus(rec.chosen(), res.best_score, 0);
    if (viol) {
      res.won = true;
      res.execs_to_find = res.execs;
      record_violation("lin", rec.chosen(), 0);
      return res;
    }
  }

  // ---- Climb: energy-weighted seed selection, mutate, prefix-replay.
  bool stuck_recorded = false;
  for (int round = 0; round < opts.climb_rounds && !res.won; ++round) {
    std::vector<adversary::EventDescriptor> mut = pool.pick(rng);
    if (mut.size() < 2) break;
    const std::vector<adversary::EventDescriptor> donor_copy = pool.donor(rng);
    mutate_schedule(rng, mut, /*floor=*/0,
                    donor_copy.empty() ? nullptr : &donor_copy);
    const std::uint64_t coin_tail =
        mix64(static_cast<std::uint64_t>(round) * 7 + 3);
    AbdBuilt b =
        build_abd(std::make_unique<ScriptThenSeededCoin>(draws, coin_tail));
    PrefixThenUniform adv(mut,
                          mix64(static_cast<std::uint64_t>(round) * 13 + 1));
    ScheduleRecorder rec(adv);
    obs::ScheduleFingerprinter fp(rec);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    res.replay_repairs += adv.skipped();
    const bool fresh =
        record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted) {
      if (!stuck_recorded) {  // once per chain; every mutant would repeat it
        stuck_recorded = true;
        record_violation(
            st == sim::RunStatus::kDeadlock ? "deadlock" : "nonterm",
            rec.chosen(), coin_tail);
      }
      continue;
    }
    const bool viol = !abd_lin_ok(*b.world);
    const int sc = abd_score_run(*b.world, viol);
    if (sc > res.best_score) res.best_score = sc;
    if (viol) {
      res.won = true;
      res.execs_to_find = res.execs;
      push_corpus(rec.chosen(), sc, coin_tail);
      record_violation("lin", rec.chosen(), coin_tail);
      break;
    }
    if (pool.offer(rec.chosen(), sc, fresh, rng)) {
      push_corpus(rec.chosen(), sc, coin_tail);
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// figure1 chain

Figure1ChainResult run_figure1_chain(const Figure1ChainOptions& opts) {
  Figure1ChainResult res;
  std::vector<adversary::EventDescriptor> best;
  std::vector<int> draws;
  int seed_score = -1;

  const auto push_corpus =
      [&](const std::vector<adversary::EventDescriptor>& sched, int score,
          const std::vector<int>& script, std::uint64_t coin_tail) {
        CorpusEntry e;
        e.target = "figure1";
        e.chain_seed = res.chain_seed;
        e.score = score;
        e.execs = res.execs;
        e.coin_script = script;
        e.coin_tail_seed = coin_tail;
        e.schedule = sched;
        if (static_cast<int>(res.corpus.size()) >= opts.max_corpus_entries) {
          res.corpus.erase(res.corpus.begin());
        }
        res.corpus.push_back(std::move(e));
      };

  // ---- Phase A seed: scan uniform runs until one reaches the program coin.
  bool seeded = false;
  for (std::uint64_t i = opts.seed_start;
       i < opts.seed_start + opts.seed_attempts && !seeded; ++i) {
    auto rc = std::make_unique<RecordingCoin>(i);
    RecordingCoin* rcp = rc.get();
    Fig1Built b = build_fig1(std::move(rc));
    sim::UniformAdversary uni(mix64(i) + 17);
    Spy spy(uni, b.world.get());
    obs::ScheduleFingerprinter fp(spy);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted || !spy.saw) continue;
    seeded = true;
    res.chain_seed = i;
    best = spy.chosen;
    draws = rcp->draws();
    seed_score = spy.score();
  }
  if (!seeded) return res;

  // ---- Phase A climb: pool-driven mutation toward the 9-bit goal.
  FuzzRng rng(mix64(res.chain_seed + 1) + 5);
  SeedPool pool(opts.pool_capacity);
  pool.offer(best, seed_score, true, rng);
  push_corpus(best, seed_score, draws, 99);
  for (int round = 0; round < opts.phase_a_rounds && pool.best_score() < 9;
       ++round) {
    std::vector<adversary::EventDescriptor> mut = pool.pick(rng);
    if (mut.size() < 2) break;
    // Truncate/move only: the prefix-qualification gradient is a fragile
    // choreography, and the structural operators (splice/delete/duplicate)
    // measurably degrade the qualified prefixes' Phase-B pairing rate. The
    // full operator set runs on the abd chain, where it is validated.
    if (rng.coin()) {
      truncate_tail(rng, mut, /*floor=*/0);
    } else {
      move_one(rng, mut, /*floor=*/0);
    }
    Fig1Built b = build_fig1(std::make_unique<ScriptThenSeededCoin>(draws, 99));
    PrefixThenBiased replay(mut,
                            mix64(static_cast<std::uint64_t>(round) * 11 + 29));
    Spy spy(replay, b.world.get());
    obs::ScheduleFingerprinter fp(spy);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    res.replay_repairs += replay.skipped();
    const bool fresh =
        record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted || !spy.saw) continue;
    const int sc = spy.score();
    if (pool.offer(spy.chosen, sc, fresh, rng)) {
      push_corpus(spy.chosen, sc, draws, 99);
    }
  }
  res.phase_a_score = pool.best_score();
  if (res.phase_a_score < 9) return res;
  best = pool.best_schedule();

  // ---- Re-run the best schedule strictly to locate the prefix bookkeeping.
  std::size_t coin_draw_index = 0;
  {
    Fig1Built b = build_fig1(std::make_unique<ScriptThenSeededCoin>(draws, 99));
    adversary::EventReplayAdversary replay(best);
    Spy spy(replay, b.world.get());
    obs::ScheduleFingerprinter fp(spy);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    res.replay_repairs += replay.repairs();
    record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted || !spy.saw) return res;
    best = spy.chosen;
    res.prefix_len = static_cast<int>(spy.prefix_len);
    coin_draw_index = spy.coin_draw_index;
  }
  res.qualified = true;
  const std::vector<adversary::EventDescriptor> prefix(
      best.begin(), best.begin() + res.prefix_len);
  res.prefix_hash =
      schedule_prefix_hash(best, static_cast<std::size_t>(res.prefix_len));

  const auto record_branch_violation =
      [&](int bcv, const std::vector<adversary::EventDescriptor>& sched,
          const std::vector<int>& script, std::uint64_t coin_tail) {
        ViolationRecord v;
        v.target = "figure1";
        v.kind = "figure1_branch";
        v.chain_seed = res.chain_seed;
        v.execs_to_find = res.execs;
        v.coin_script = script;
        v.coin_tail_seed = coin_tail;
        v.prefix_len = res.prefix_len;
        v.prefix_hash = res.prefix_hash;
        v.schedule = sched;
        const auto fails =
            [&](const std::vector<adversary::EventDescriptor>& s) {
              const Figure1ReplayOutcome o =
                  replay_figure1(s, script, coin_tail);
              return o.status == sim::RunStatus::kCompleted && o.looped &&
                     o.coin == bcv;
            };
        const Figure1ReplayOutcome check =
            replay_figure1(sched, script, coin_tail);
        res.replay_repairs += check.repairs;
        if (check.status == sim::RunStatus::kCompleted && check.looped &&
            check.coin == bcv) {
          adversary::ShrinkOptions so;
          so.max_evals = opts.shrink_max_evals;
          v.shrunk = adversary::shrink_schedule(fails, sched, so);
        } else {
          v.shrunk = sched;
        }
        v.repro = adversary::to_scripted_program(v.shrunk);
        res.violations.push_back(std::move(v));
      };

  // ---- Phase B: per-branch tail search from the shared prefix.
  const int goal[2] = {9, 5};  // win bit counts 2
  const auto floor = static_cast<std::size_t>(res.prefix_len);
  for (int bcv = 0; bcv < 2; ++bcv) {
    std::vector<int> script(
        draws.begin(),
        draws.begin() + static_cast<std::ptrdiff_t>(coin_draw_index));
    script.push_back(bcv);
    std::vector<adversary::EventDescriptor> tb;  // best full schedule
    int ts_best = -1;
    bool ok = false;
    // Seed the branch: best of up to phase_b_seed_tails biased tails.
    for (int t = 0; t < opts.phase_b_seed_tails && !ok; ++t) {
      const std::uint64_t coin_tail = mix64(static_cast<std::uint64_t>(t)) + 5;
      Fig1Built b =
          build_fig1(std::make_unique<ScriptThenSeededCoin>(script, coin_tail));
      PrefixThenBiased adv(
          prefix, mix64(static_cast<std::uint64_t>(t * 31 + bcv)) + 7);
      Spy spy(adv, b.world.get());
      obs::ScheduleFingerprinter fp(spy);
      ++res.execs;
      const sim::RunStatus st = b.world->run(fp).status;
      res.replay_repairs += adv.skipped();
      record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
      if (st != sim::RunStatus::kCompleted) continue;
      if (b.out->looped() && b.out->coin == bcv) {
        ok = true;
        ts_best = goal[bcv];
        record_branch_violation(bcv, spy.chosen, script, coin_tail);
        break;
      }
      const int sc = branch_score(bcv, *b.world, *b.out);
      if (sc > ts_best) {
        tb = spy.chosen;
        ts_best = sc;
      }
    }
    // Climb: tail-only truncate-and-re-extend / move mutations.
    FuzzRng brng(mix64((res.chain_seed + 1) * 2 + static_cast<std::uint64_t>(
                                                      bcv)) +
                 13);
    const int rounds = bcv == 0 ? opts.phase_b_rounds0 : opts.phase_b_rounds1;
    for (int round = 0; round < rounds && !ok && !tb.empty(); ++round) {
      std::vector<adversary::EventDescriptor> mut = tb;
      if (mut.size() <= floor + 1 || brng.coin()) {
        // Truncate at a random tail point; the biased replay re-extends.
        const std::size_t span = mut.size() > floor ? mut.size() - floor : 0;
        const std::size_t keep = span ? brng.below(span) : 0;
        mut.resize(floor + keep);
      } else {
        move_one(brng, mut, floor);
      }
      const std::uint64_t coin_tail =
          mix64(static_cast<std::uint64_t>(round) * 7 + 3);
      Fig1Built b =
          build_fig1(std::make_unique<ScriptThenSeededCoin>(script, coin_tail));
      PrefixThenBiased adv(mut,
                           mix64(static_cast<std::uint64_t>(round) * 13 + 1));
      Spy spy(adv, b.world.get());
      obs::ScheduleFingerprinter fp(spy);
      ++res.execs;
      const sim::RunStatus st = b.world->run(fp).status;
      res.replay_repairs += adv.skipped();
      record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
      if (st != sim::RunStatus::kCompleted) continue;
      if (b.out->looped() && b.out->coin == bcv) {
        ok = true;
        ts_best = goal[bcv];
        record_branch_violation(bcv, spy.chosen, script, coin_tail);
        break;
      }
      const int sc = branch_score(bcv, *b.world, *b.out);
      if (sc > ts_best || (sc == ts_best && brng.below(4) == 0)) {
        tb = spy.chosen;
        ts_best = sc;
      }
    }
    if (bcv == 0) {
      res.branch0 = ok;
      res.branch_end_score0 = ts_best;
    } else {
      res.branch1 = ok;
      res.branch_end_score1 = ts_best;
    }
  }
  res.paired = res.branch0 && res.branch1;
  return res;
}

// ---------------------------------------------------------------------------
// Monte-Carlo baseline arms

AbdMcResult run_abd_bug_mc(std::uint64_t seed, long trials) {
  AbdMcResult res;
  for (long t = 0; t < trials; ++t) {
    const std::uint64_t i = seed + static_cast<std::uint64_t>(t);
    AbdBuilt b = build_abd(std::make_unique<ScriptThenSeededCoin>(
        std::vector<int>{}, mix64(i) + 19));
    sim::UniformAdversary uni(mix64(i ^ 0x5bd1e995ULL) + 3);
    obs::ScheduleFingerprinter fp(uni);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted) continue;
    if (!abd_lin_ok(*b.world)) {
      ++res.violations;
      if (res.execs_to_first < 0) res.execs_to_first = res.execs;
    }
  }
  return res;
}

Figure1McResult run_figure1_mc(std::uint64_t seed, long trials) {
  Figure1McResult res;
  for (long t = 0; t < trials; ++t) {
    const std::uint64_t i = seed + static_cast<std::uint64_t>(t);
    Fig1Built b = build_fig1(std::make_unique<ScriptThenSeededCoin>(
        std::vector<int>{}, mix64(i) + 23));
    sim::UniformAdversary uni(mix64(i) + 17);
    Spy spy(uni, b.world.get());
    obs::ScheduleFingerprinter fp(spy);
    ++res.execs;
    const sim::RunStatus st = b.world->run(fp).status;
    record_novelty(res.schedules, res.ngrams, res.objects, fp, *b.world);
    if (st != sim::RunStatus::kCompleted || !spy.saw) continue;
    if (!b.out->looped()) continue;
    ++res.loops;
    const std::uint64_t ph = schedule_prefix_hash(spy.chosen, spy.prefix_len);
    if (b.out->coin == 0) {
      ++res.loops0;
      res.loop0_prefixes.insert(ph);
    } else {
      ++res.loops1;
      res.loop1_prefixes.insert(ph);
    }
  }
  return res;
}

}  // namespace blunt::fuzz
