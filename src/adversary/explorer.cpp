#include "adversary/explorer.hpp"

#include "common/assert.hpp"

namespace blunt::adversary {

Instance make_instance(std::vector<int> coins, int max_steps) {
  Instance inst;
  auto coin = std::make_unique<sim::ScriptedCoin>(std::move(coins));
  inst.coin = coin.get();
  inst.world = std::make_unique<sim::World>(sim::Config{max_steps, 0},
                                            std::move(coin));
  return inst;
}

namespace {

class Explorer {
 public:
  Explorer(const Factory& factory, const ExplorerConfig& cfg)
      : factory_(factory), cfg_(cfg) {}

  Rational run(ExplorerResult& out) {
    const Rational v = node({}, {});
    out.value = v;
    out.executions = executions_;
    out.nodes = nodes_;
    out.truncated = truncated_;
    out.histories = std::move(histories_);
    return v;
  }

 private:
  // Value of the tree node reached by applying `choices` with coin script
  // `coins`.
  Rational node(const std::vector<std::size_t>& choices,
                const std::vector<int>& coins) {
    if (++nodes_ > cfg_.max_nodes ||
        static_cast<int>(choices.size()) > cfg_.max_depth) {
      truncated_ = true;
      return Rational(0);
    }
    Instance inst = factory_(coins);
    sim::World& w = *inst.world;
    BLUNT_ASSERT(inst.coin != nullptr, "Instance without scripted coin");

    for (std::size_t i = 0; i < choices.size(); ++i) {
      const sim::EnabledView events = w.enabled_events();
      BLUNT_ASSERT(choices[i] < events.size(), "stale choice during replay");
      w.execute(events[choices[i]]);
      if (inst.coin->overflow_draws() > 0) {
        // The step at position i drew a coin beyond the script: branch over
        // its outcomes. (Replays with the extended script will take the same
        // prefix deterministically.)
        BLUNT_ASSERT(i + 1 == choices.size(),
                     "coin overflow must occur at the newest choice");
        const int n = inst.coin->exhausted_demand();
        Rational sum;
        for (int v = 0; v < n; ++v) {
          std::vector<int> next_coins = coins;
          next_coins.push_back(v);
          sum += node(choices, next_coins);
        }
        return sum / Rational(n);
      }
    }

    if (w.finished()) {
      ++executions_;
      if (cfg_.collect_histories &&
          static_cast<int>(histories_.size()) < cfg_.max_histories) {
        histories_.push_back(lin::History::from_world(w));
      }
      return inst.bad() ? Rational(1) : Rational(0);
    }

    const std::size_t num_events = w.enabled_events().size();
    BLUNT_ASSERT(num_events > 0, "explorer hit a deadlock");
    Rational best;
    bool first = true;
    for (std::size_t i = 0; i < num_events; ++i) {
      std::vector<std::size_t> next = choices;
      next.push_back(i);
      const Rational v = node(next, coins);
      if (first || v > best) best = v;
      first = false;
    }
    return best;
  }

  const Factory& factory_;
  const ExplorerConfig& cfg_;
  long executions_ = 0;
  long nodes_ = 0;
  bool truncated_ = false;
  std::vector<lin::History> histories_;
};

}  // namespace

ExplorerResult explore(const Factory& factory, const ExplorerConfig& cfg) {
  ExplorerResult out;
  Explorer(factory, cfg).run(out);
  return out;
}

}  // namespace blunt::adversary
