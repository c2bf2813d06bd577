#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

std::int64_t TrialTrace::self_ns(Span s) const {
  std::int64_t self = (*this)[s].ns;
  for (int c = 0; c < static_cast<int>(Span::kCount); ++c) {
    const auto child = static_cast<Span>(c);
    if (child != s && kSpanParent[c] == s) self -= spans[c].ns;
  }
  return self;
}

sim::RunResult traced_run(sim::World& w, sim::Adversary& adv,
                          TrialTrace& trace) {
  sim::RunResult result{sim::RunStatus::kStepBudgetExhausted, 0, {}};
  SpanAgg& scan = trace[Span::kEnabledScan];
  SpanAgg& choose = trace[Span::kChoose];
  SpanAgg& resume = trace[Span::kExecuteResume];
  SpanAgg& deliver = trace[Span::kDeliver];
  const std::int64_t start = now_ns();
  std::int64_t mark = start;
  while (w.steps_executed() < w.config().max_steps) {
    if (w.finished()) {
      result.status = sim::RunStatus::kCompleted;
      break;
    }
    const auto& enabled = w.enabled_events();
    const std::int64_t scanned = now_ns();
    scan.ns += scanned - mark;
    ++scan.calls;
    const std::size_t offered = enabled.size();
    if (offered == 0) {
      result.status = sim::RunStatus::kDeadlock;
      if (w.config().deadlock_diagnostics) {
        result.deadlock_detail = w.describe_stuck();
      }
      break;
    }
    trace.events_offered += static_cast<std::int64_t>(offered);
    const std::size_t idx = adv.choose(w, enabled);
    const std::int64_t chosen = now_ns();
    choose.ns += chosen - scanned;
    ++choose.calls;
    if (idx >= offered) {
      std::fprintf(stderr, "adversary chose %zu of %zu events\n", idx,
                   offered);
      std::abort();
    }
    const sim::Event::Kind kind = enabled[idx].kind;
    w.execute(enabled[idx]);
    mark = now_ns();
    // Crash and tick events stay in sim.run's self time.
    if (kind == sim::Event::Kind::kDeliver) {
      deliver.ns += mark - chosen;
      ++deliver.calls;
    } else if (kind == sim::Event::Kind::kResume) {
      resume.ns += mark - chosen;
      ++resume.calls;
    }
  }
  SpanAgg& run = trace[Span::kRun];
  run.ns += now_ns() - start;
  ++run.calls;
  result.steps = w.steps_executed();
  trace.steps += result.steps;
  return result;
}

TrialTrace total(const std::vector<TrialTrace>& traces) {
  TrialTrace sum;
  for (const TrialTrace& t : traces) {
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
      sum.spans[s].ns += t.spans[s].ns;
      sum.spans[s].calls += t.spans[s].calls;
    }
    sum.steps += t.steps;
    sum.events_offered += t.events_offered;
    sum.ops += t.ops;
  }
  return sum;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<TrialTrace>& traces) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const TrialTrace& t : traces) {
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
      const auto sp = static_cast<Span>(s);
      if (t[sp].calls == 0) continue;
      out << "{\"workload\":\"" << workload << "\",\"trial\":" << t.id
          << ",\"span\":\"" << kSpanNames[s] << "\",\"parent\":";
      if (sp == Span::kTrial) {
        out << "null";
      } else {
        out << '"' << kSpanNames[static_cast<int>(kSpanParent[s])] << '"';
      }
      out << ",\"ns\":" << t[sp].ns << ",\"self_ns\":" << t.self_ns(sp)
          << ",\"calls\":" << t[sp].calls << "}\n";
    }
  }
}

}  // namespace perfbench
