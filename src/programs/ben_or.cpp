#include "programs/ben_or.hpp"

#include "common/assert.hpp"

namespace blunt::programs {

namespace {

constexpr std::int64_t kQuestion = 2;  // the "?" proposal

// Register-array index helpers: registers are laid out per round.
struct Arrays {
  // P[r][i], Q[r][i], D[i] — flat indices into the owning vector.
  int n = 0;
  int rounds = 0;

  [[nodiscard]] int p(int r, int i) const { return (r * n + i) * 2; }
  [[nodiscard]] int q(int r, int i) const { return (r * n + i) * 2 + 1; }
  [[nodiscard]] int d(int i) const { return 2 * n * rounds + i; }
  [[nodiscard]] int total() const { return 2 * n * rounds + n; }
};

}  // namespace

bool BenOrOutcome::all_decided() const {
  for (const int d : decision) {
    if (d < 0) return false;
  }
  return !decision.empty();
}

bool BenOrOutcome::agreement() const {
  int seen = -1;
  for (const int d : decision) {
    if (d < 0) continue;
    if (seen < 0) seen = d;
    if (d != seen) return false;
  }
  return true;
}

bool BenOrOutcome::validity(const std::vector<int>& inputs) const {
  for (const int d : decision) {
    if (d < 0) continue;
    bool was_input = false;
    for (const int in : inputs) was_input = was_input || in == d;
    if (!was_input) return false;
  }
  return true;
}

std::vector<std::shared_ptr<objects::RegisterObject>> install_ben_or(
    sim::World& w, const BenOrConfig& cfg, const RegisterFactory& make_reg,
    BenOrOutcome& out) {
  const int n = cfg.num_processes;
  BLUNT_ASSERT(n >= 2, "consensus needs at least two processes");
  BLUNT_ASSERT(static_cast<int>(cfg.inputs.size()) == n,
               "need one input per process");
  for (const int in : cfg.inputs) {
    BLUNT_ASSERT(in == 0 || in == 1, "binary consensus inputs are 0/1");
  }
  const int quorum = n / 2 + 1;
  Arrays ix{n, cfg.max_rounds};

  auto regs = std::make_shared<
      std::vector<std::shared_ptr<objects::RegisterObject>>>();
  regs->reserve(static_cast<std::size_t>(ix.total()));
  for (int r = 0; r < cfg.max_rounds; ++r) {
    for (int i = 0; i < n; ++i) {
      std::string round_pid = std::to_string(r);
      round_pid += '_';
      round_pid += std::to_string(i);
      regs->push_back(make_reg(std::string("P").append(round_pid)));
      regs->push_back(make_reg(std::string("Q").append(round_pid)));
    }
  }
  for (int i = 0; i < n; ++i) {
    regs->push_back(make_reg(std::string("D").append(std::to_string(i))));
  }
  BLUNT_ASSERT(static_cast<int>(regs->size()) == ix.total(), "layout bug");

  out.decision.assign(static_cast<std::size_t>(n), -1);
  out.decided_round.assign(static_cast<std::size_t>(n), -1);
  out.coin_flips = 0;

  for (int i = 0; i < n; ++i) {
    const Pid pid = w.add_process(
        std::string("p").append(std::to_string(i)),
        [regs, ix, n, quorum, cfg, i, &out](sim::Proc p) -> sim::Task<void> {
          auto reg = [&](int idx) -> objects::RegisterObject& {
            return *(*regs)[static_cast<std::size_t>(idx)];
          };
          // Checks the decision registers; returns the gossiped value or -1.
          auto check_gossip = [&]() -> sim::Task<int> {
            for (int j = 0; j < n; ++j) {
              const sim::Value dv = co_await reg(ix.d(j)).read(p);
              if (!sim::is_bottom(dv)) {
                co_return static_cast<int>(sim::as_int(dv));
              }
            }
            co_return -1;
          };
          auto decide = [&](int v, int round) -> sim::Task<void> {
            co_await reg(ix.d(i)).write(p, sim::Value(std::int64_t{v}));
            out.decision[static_cast<std::size_t>(i)] = v;
            out.decided_round[static_cast<std::size_t>(i)] = round + 1;
          };

          int v = cfg.inputs[static_cast<std::size_t>(i)];
          for (int r = 0; r < cfg.max_rounds; ++r) {
            {
              const int g = co_await check_gossip();
              if (g >= 0) {
                co_await decide(g, r);
                co_return;
              }
            }
            // -- Phase 1: report, then collect a quorum of reports. --
            co_await reg(ix.p(r, i)).write(p, sim::Value(std::int64_t{v}));
            int count0 = 0;
            int count1 = 0;
            for (;;) {
              count0 = count1 = 0;
              for (int j = 0; j < n; ++j) {
                const sim::Value pv = co_await reg(ix.p(r, j)).read(p);
                if (sim::is_bottom(pv)) continue;
                (sim::as_int(pv) == 0 ? count0 : count1)++;
              }
              if (count0 + count1 >= quorum) break;
              const int g = co_await check_gossip();
              if (g >= 0) {
                co_await decide(g, r);
                co_return;
              }
            }
            const std::int64_t w_prop = count0 >= quorum ? 0
                                        : count1 >= quorum
                                            ? 1
                                            : kQuestion;
            // -- Phase 2: propose, then collect a quorum of proposals. --
            co_await reg(ix.q(r, i)).write(p, sim::Value(w_prop));
            int prop0 = 0;
            int prop1 = 0;
            int props = 0;
            for (;;) {
              prop0 = prop1 = props = 0;
              for (int j = 0; j < n; ++j) {
                const sim::Value qv = co_await reg(ix.q(r, j)).read(p);
                if (sim::is_bottom(qv)) continue;
                ++props;
                if (sim::as_int(qv) == 0) ++prop0;
                if (sim::as_int(qv) == 1) ++prop1;
              }
              if (props >= quorum) break;
              const int g = co_await check_gossip();
              if (g >= 0) {
                co_await decide(g, r);
                co_return;
              }
            }
            if (prop0 >= quorum || prop1 >= quorum) {
              co_await decide(prop0 >= quorum ? 0 : 1, r);
              co_return;
            }
            if (prop0 > 0 || prop1 > 0) {
              // At most one non-"?" value can exist per round (report
              // quorums intersect), so adoption is unambiguous.
              BLUNT_ASSERT(prop0 == 0 || prop1 == 0,
                           "two distinct proposals in one round");
              v = prop0 > 0 ? 0 : 1;
            } else {
              v = co_await p.random(2, "ben-or coin r" + std::to_string(r));
              ++out.coin_flips;
            }
          }
          // Round cap reached undecided.
        });
    BLUNT_ASSERT(pid == i, "consensus processes must be the first n");
  }
  return *regs;
}

}  // namespace blunt::programs
