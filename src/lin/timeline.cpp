#include "lin/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/assert.hpp"

namespace blunt::lin {

namespace {

// Short operation tag: "W(1)", "R:0", "Scan:[1,2]", "Enq(3)", "Deq:7".
std::string op_tag(const Operation& op, bool show_values) {
  std::string tag = op.method == "Write"  ? "W"
                    : op.method == "Read" ? "R"
                                          : op.method;
  if (show_values) {
    if (!sim::is_bottom(op.argument)) {
      tag += '(';
      tag += sim::to_string(op.argument);
      tag += ')';
    }
    if (op.result.has_value() && !sim::is_bottom(*op.result)) {
      tag += ':';
      tag += sim::to_string(*op.result);
    } else if (op.pending()) {
      tag += ":?";
    }
  }
  return tag;
}

}  // namespace

std::string render_timeline(const History& h, const TimelineOptions& opts) {
  if (h.empty()) return "(empty history)\n";

  // Compress trace positions: only call/return positions get columns, two
  // text cells each, so concurrent structure is visible without rendering
  // the full trace length.
  std::vector<int> positions;
  int max_pos = 0;
  for (const Operation& op : h.ops()) {
    positions.push_back(op.call_pos);
    max_pos = std::max(max_pos, op.call_pos);
    if (op.ret_pos >= 0) {
      positions.push_back(op.ret_pos);
      max_pos = std::max(max_pos, op.ret_pos);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  std::map<int, int> column;  // trace position -> text column
  // Cell width: wide enough that a one-interval span fits its tag.
  int cell = 4;
  for (const Operation& op : h.ops()) {
    cell = std::max(
        cell, static_cast<int>(op_tag(op, opts.show_values).size()) + 3);
  }
  cell = std::min(cell, std::max(6, opts.max_width /
                                        std::max<int>(1, static_cast<int>(
                                                             positions.size()))));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    column[positions[i]] = static_cast<int>(i) * cell;
  }
  const int open_end = static_cast<int>(positions.size()) * cell + 2;

  // Group ops per process.
  std::map<Pid, std::vector<const Operation*>> rows;
  for (const Operation& op : h.ops()) rows[op.pid].push_back(&op);

  std::ostringstream os;
  for (auto& [pid, ops] : rows) {
    std::string line(static_cast<std::size_t>(open_end) + 2, ' ');
    for (const Operation* op : ops) {
      const int a = column.at(op->call_pos);
      const int b = op->ret_pos >= 0 ? column.at(op->ret_pos) + 1 : open_end;
      BLUNT_ASSERT(b > a, "timeline span inverted");
      line[static_cast<std::size_t>(a)] = '[';
      for (int x = a + 1; x < b; ++x) line[static_cast<std::size_t>(x)] = '=';
      line[static_cast<std::size_t>(b)] = op->ret_pos >= 0 ? ']' : '>';
      // Inlay the tag.
      std::string tag = " ";
      tag += op_tag(*op, opts.show_values);
      tag += ' ';
      const int span = b - a - 1;
      if (static_cast<int>(tag.size()) <= span) {
        const int start = a + 1 + (span - static_cast<int>(tag.size())) / 2;
        for (std::size_t i = 0; i < tag.size(); ++i) {
          line[static_cast<std::size_t>(start) + i] = tag[i];
        }
      }
    }
    // Trim trailing spaces.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    os << 'p' << pid << " |" << line << '\n';
  }
  return os.str();
}

}  // namespace blunt::lin
