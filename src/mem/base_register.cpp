#include "mem/base_register.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace blunt::mem {

BaseRegister::BaseRegister(std::string name, sim::Value initial,
                           std::vector<Pid> writers, std::vector<Pid> readers)
    : name_(std::move(name)),
      read_label_(name_ + ".read"),
      write_label_(name_ + ".write"),
      value_(std::move(initial)),
      writers_(std::move(writers)),
      readers_(std::move(readers)) {}

void BaseRegister::check_access(Pid pid, const std::vector<Pid>& allowed,
                                const char* verb) const {
  if (allowed.empty()) return;
  BLUNT_ASSERT(std::find(allowed.begin(), allowed.end(), pid) != allowed.end(),
               "p" << pid << " may not " << verb << " register " << name_);
}

sim::Task<sim::Value> BaseRegister::read(sim::Proc p, InvocationId inv) {
  check_access(p.pid(), readers_, "read");
  co_await p.yield(sim::StepKind::kRegisterRead, read_label_, inv);
  // Scheduled: the read happens now, atomically.
  ++reads_;
  sim::Value v = value_;
  sim::Trace& trace = p.world().trace_mutable();
  if (trace.recording()) {
    trace.append({.pid = p.pid(),
                  .kind = sim::StepKind::kRegisterRead,
                  .what = name_,
                  .inv = inv,
                  .value = v});
  } else {
    trace.skip();
  }
  co_return v;
}

sim::Task<void> BaseRegister::write(sim::Proc p, sim::Value v,
                                    InvocationId inv) {
  check_access(p.pid(), writers_, "write");
  co_await p.yield(sim::StepKind::kRegisterWrite, write_label_, inv);
  ++writes_;
  value_ = v;
  sim::Trace& trace = p.world().trace_mutable();
  if (trace.recording()) {
    trace.append({.pid = p.pid(),
                  .kind = sim::StepKind::kRegisterWrite,
                  .what = name_,
                  .inv = inv,
                  .value = std::move(v)});
  } else {
    trace.skip();
  }
}

RegisterArray::RegisterArray(std::string prefix, int count, sim::Value initial,
                             std::vector<std::vector<Pid>> writers_per_cell,
                             std::vector<std::vector<Pid>> readers_per_cell) {
  BLUNT_ASSERT(count >= 0, "negative RegisterArray size");
  BLUNT_ASSERT(writers_per_cell.empty() ||
                   static_cast<int>(writers_per_cell.size()) == count,
               "writers_per_cell size mismatch");
  BLUNT_ASSERT(readers_per_cell.empty() ||
                   static_cast<int>(readers_per_cell.size()) == count,
               "readers_per_cell size mismatch");
  cells_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    cells_.emplace_back(
        prefix + "[" + std::to_string(i) + "]", initial,
        writers_per_cell.empty() ? std::vector<Pid>{}
                                 : writers_per_cell[static_cast<std::size_t>(i)],
        readers_per_cell.empty()
            ? std::vector<Pid>{}
            : readers_per_cell[static_cast<std::size_t>(i)]);
  }
}

BaseRegister& RegisterArray::at(int i) {
  BLUNT_ASSERT(i >= 0 && i < size(), "RegisterArray index " << i);
  return cells_[static_cast<std::size_t>(i)];
}

const BaseRegister& RegisterArray::at(int i) const {
  BLUNT_ASSERT(i >= 0 && i < size(), "RegisterArray index " << i);
  return cells_[static_cast<std::size_t>(i)];
}

}  // namespace blunt::mem
