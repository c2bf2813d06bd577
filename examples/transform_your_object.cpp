// Applying the preamble-iterating transformation to YOUR OWN object.
//
// The paper's recipe (Section 4): if your linearizable object's operations
// split into an effect-free preamble (read-only collection) and a tail that
// fixes the linearization order, you can blunt strong adversaries by
// iterating the preamble k times and keeping one iteration at random —
// core::iterate_preamble does it as a one-line combinator.
//
// Demo object (not in the paper): a MAX-REGISTER built from single-writer
// base registers. WriteMax(v) collects all cells (effect-free preamble),
// then writes max(v, collected) to its own cell; ReadMax collects all cells
// (the whole body is the preamble) and returns the max. Both preambles are
// read-only, and the operation's linearization is fixed by its tail — the
// same shape as the Vitanyi–Awerbuch register, so the transformation
// applies verbatim.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/transform.hpp"
#include "mem/typed_register.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace {

using namespace blunt;

struct MaxCell {
  std::int64_t value = 0;
  [[nodiscard]] std::string summary() const { return std::to_string(value); }
};

class MaxRegister {
 public:
  MaxRegister(std::string name, sim::World& w, int num_processes, int k)
      : name_(std::move(name)),
        world_(w),
        object_id_(w.register_object(name_)),
        k_(k) {
    for (Pid i = 0; i < num_processes; ++i) {
      cells_.emplace_back(name_ + "[" + std::to_string(i) + "]", MaxCell{},
                          std::vector<Pid>{i}, std::vector<Pid>{});
    }
  }

  sim::Task<std::int64_t> read_max(sim::Proc p) {
    const InvocationId inv =
        world_.begin_invocation(p.pid(), object_id_, "ReadMax", {});
    // The WHOLE read body is the effect-free preamble; iterate it.
    const std::int64_t m = co_await core::iterate_preamble<std::int64_t>(
        p, inv, k_, [this, p, inv]() { return collect_max(p, inv); },
        name_ + ".choose-iteration");
    world_.mark_line(inv, 90);
    world_.end_invocation(inv, sim::Value(m));
    co_return m;
  }

  sim::Task<void> write_max(sim::Proc p, std::int64_t v) {
    const InvocationId inv =
        world_.begin_invocation(p.pid(), object_id_, "WriteMax",
                                sim::Value(v));
    // Preamble: collect. Tail: one atomic write to the caller's cell.
    const std::int64_t m = co_await core::iterate_preamble<std::int64_t>(
        p, inv, k_, [this, p, inv]() { return collect_max(p, inv); },
        name_ + ".choose-iteration");
    world_.mark_line(inv, 50);
    co_await cells_[static_cast<std::size_t>(p.pid())].write(
        p, MaxCell{std::max(v, m)}, inv);
    world_.end_invocation(inv, {});
  }

 private:
  sim::Task<std::int64_t> collect_max(sim::Proc p, InvocationId inv) {
    std::int64_t m = 0;
    for (auto& cell : cells_) {
      m = std::max(m, (co_await cell.read(p, inv)).value);
    }
    co_return m;
  }

  std::string name_;
  sim::World& world_;
  int object_id_;
  int k_;
  std::vector<mem::TypedRegister<MaxCell>> cells_;
};

}  // namespace

int main() {
  for (const int k : {1, 3}) {
    sim::World world(sim::Config{}, std::make_unique<sim::SeededCoin>(11));
    MaxRegister mx("MX", world, /*num_processes=*/3, k);
    std::vector<std::int64_t> reads(3, -1);
    for (Pid pid = 0; pid < 3; ++pid) {
      world.add_process(
          std::string("p").append(std::to_string(pid)),
          [&mx, &reads, pid](sim::Proc p) -> sim::Task<void> {
            co_await mx.write_max(p, (pid + 1) * 10);
            reads[static_cast<std::size_t>(pid)] = co_await mx.read_max(p);
          });
    }
    sim::UniformAdversary adv(3);
    const sim::RunResult r = world.run(adv);
    std::printf("k=%d: %s in %d steps; reads:", k, to_string(r.status),
                r.steps);
    for (const std::int64_t v : reads) std::printf(" %lld",
                                                   static_cast<long long>(v));
    std::printf("  (object random steps drawn: %d)\n", world.random_draws());
  }
  std::printf(
      "\nWith k > 1 every operation draws one object random step "
      "(Algorithm 2's\nrandom([1..k])); costs grow with k while a strong "
      "adversary's ability to\nsteer pending operations after observing "
      "program coins shrinks per Theorem 4.2.\n");
  return 0;
}
