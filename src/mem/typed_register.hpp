// TypedRegister<T>: an atomic base register holding a structured cell.
//
// The snapshot, Vitanyi–Awerbuch, and Israeli–Li constructions keep
// (value, sequence-number, view...) tuples in their base registers;
// TypedRegister gives those cells the same one-access-one-step semantics as
// mem::BaseRegister. The cell type must provide `std::string summary()
// const` for trace recording.
#pragma once

#include <algorithm>
#include <concepts>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"
#include "sim/world.hpp"

namespace blunt::mem {

template <typename T>
concept Cell = std::copyable<T> && requires(const T& t) {
  { t.summary() } -> std::convertible_to<std::string>;
};

template <Cell T>
class TypedRegister {
 public:
  /// Empty writer/reader lists mean "any process".
  TypedRegister(std::string name, T initial, std::vector<Pid> writers = {},
                std::vector<Pid> readers = {})
      : name_(std::move(name)),
        read_label_(name_ + ".read"),
        write_label_(name_ + ".write"),
        swap_label_(name_ + ".swap"),
        value_(std::move(initial)),
        writers_(std::move(writers)),
        readers_(std::move(readers)) {}

  /// One atomic read = one scheduler step.
  sim::Task<T> read(sim::Proc p, InvocationId inv = -1) {
    check(p.pid(), readers_, "read");
    co_await p.yield(sim::StepKind::kRegisterRead, read_label_, inv);
    ++reads_;
    T v = value_;
    sim::Trace& trace = p.world().trace_mutable();
    if (trace.recording()) {
      trace.append({.pid = p.pid(),
                    .kind = sim::StepKind::kRegisterRead,
                    .what = name_ + " " + v.summary(),
                    .inv = inv,
                    .value = {}});
    } else {
      trace.skip();
    }
    co_return v;
  }

  /// One atomic write = one scheduler step.
  sim::Task<void> write(sim::Proc p, T v, InvocationId inv = -1) {
    check(p.pid(), writers_, "write");
    co_await p.yield(sim::StepKind::kRegisterWrite, write_label_, inv);
    ++writes_;
    value_ = std::move(v);
    sim::Trace& trace = p.world().trace_mutable();
    if (trace.recording()) {
      trace.append({.pid = p.pid(),
                    .kind = sim::StepKind::kRegisterWrite,
                    .what = name_ + " " + value_.summary(),
                    .inv = inv,
                    .value = {}});
    } else {
      trace.skip();
    }
  }

  /// One atomic swap (exchange) = one scheduler step: installs `v`, returns
  /// the previous cell. (A read-modify-write base object, as the
  /// Herlihy–Wing queue assumes.)
  sim::Task<T> swap(sim::Proc p, T v, InvocationId inv = -1) {
    check(p.pid(), writers_, "swap");
    co_await p.yield(sim::StepKind::kRegisterWrite, swap_label_, inv);
    ++writes_;
    T old = std::exchange(value_, std::move(v));
    sim::Trace& trace = p.world().trace_mutable();
    if (trace.recording()) {
      trace.append({.pid = p.pid(),
                    .kind = sim::StepKind::kRegisterWrite,
                    .what = name_ + ".swap -> " + value_.summary(),
                    .inv = inv,
                    .value = {}});
    } else {
      trace.skip();
    }
    co_return old;
  }

  /// Test/debug access; NOT a simulation step.
  [[nodiscard]] const T& peek() const { return value_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int reads() const { return reads_; }
  [[nodiscard]] int writes() const { return writes_; }

 private:
  void check(Pid pid, const std::vector<Pid>& allowed,
             const char* verb) const {
    if (allowed.empty()) return;
    BLUNT_ASSERT(
        std::find(allowed.begin(), allowed.end(), pid) != allowed.end(),
        "p" << pid << " may not " << verb << " register " << name_);
  }

  std::string name_;
  // Precomputed yield labels (see mem::BaseRegister): no per-step concats.
  std::string read_label_;
  std::string write_label_;
  std::string swap_label_;
  T value_;
  std::vector<Pid> writers_;
  std::vector<Pid> readers_;
  int reads_ = 0;
  int writes_ = 0;
};

}  // namespace blunt::mem
