// A fetch-and-add base object (atomic counter) — one access, one scheduler
// step, like every base object (Section 2.1). Used by the Herlihy–Wing-style
// queue (src/objects/hw_queue), the paper's Section 7 "future work" object.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "sim/task.hpp"
#include "sim/world.hpp"

namespace blunt::mem {

class FaaRegister {
 public:
  FaaRegister(std::string name, std::int64_t initial = 0)
      : name_(std::move(name)),
        faa_label_(name_ + ".faa"),
        read_label_(name_ + ".read"),
        value_(initial) {}

  /// Atomically adds `delta` and returns the PREVIOUS value; one step.
  sim::Task<std::int64_t> fetch_add(sim::Proc p, std::int64_t delta,
                                    InvocationId inv = -1) {
    co_await p.yield(sim::StepKind::kRegisterWrite, faa_label_, inv);
    const std::int64_t old = value_;
    value_ += delta;
    sim::Trace& trace = p.world().trace_mutable();
    if (trace.recording()) {
      trace.append({.pid = p.pid(),
                    .kind = sim::StepKind::kRegisterWrite,
                    .what = name_ + ".faa " + std::to_string(old) + "->" +
                            std::to_string(value_),
                    .inv = inv,
                    .value = sim::Value(old)});
    } else {
      trace.skip();
    }
    co_return old;
  }

  /// Atomic read; one step.
  sim::Task<std::int64_t> read(sim::Proc p, InvocationId inv = -1) {
    co_await p.yield(sim::StepKind::kRegisterRead, read_label_, inv);
    const std::int64_t v = value_;
    sim::Trace& trace = p.world().trace_mutable();
    if (trace.recording()) {
      trace.append({.pid = p.pid(),
                    .kind = sim::StepKind::kRegisterRead,
                    .what = name_,
                    .inv = inv,
                    .value = sim::Value(v)});
    } else {
      trace.skip();
    }
    co_return v;
  }

  /// Test/debug access; NOT a simulation step.
  [[nodiscard]] std::int64_t peek() const { return value_; }

 private:
  std::string name_;
  std::string faa_label_;
  std::string read_label_;
  std::int64_t value_;
};

}  // namespace blunt::mem
