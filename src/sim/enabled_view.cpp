#include "sim/enabled_view.hpp"

namespace blunt::sim {

void EventChunks::add_chunk() {
  const std::size_t end = size();
  if (spare_.empty()) {
    slots_.push_back({std::make_unique<Chunk>()});
  } else {
    slots_.push_back({std::move(spare_.back())});
    spare_.pop_back();
  }
  ends_.push_back(end);
}

EventChunks::Place EventChunks::search(int msg_id) const {
  // The last chunk whose first_id is at most msg_id holds it.
  const auto sit = std::upper_bound(
      slots_.begin(), slots_.end(), msg_id,
      [](int id, const Slot& s) { return id < s.first_id; });
  BLUNT_ASSERT(sit != slots_.begin(),
               "pushed erase of unindexed msg " << msg_id);
  const auto c = static_cast<std::size_t>(sit - slots_.begin()) - 1;
  const Event* const first = slots_[c].chunk->events.data();
  const Event* const last = first + chunk_size(c);
  const Event* const it =
      std::lower_bound(first, last, msg_id,
                       [](const Event& e, int id) { return e.msg_id < id; });
  BLUNT_ASSERT(it != last && it->msg_id == msg_id,
               "pushed erase of unindexed msg " << msg_id);
  return {c, static_cast<std::size_t>(it - first)};
}

void EventChunks::clear() {
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    for (std::size_t i = 0; i < chunk_size(c); ++i) {
      slots_[c].chunk->summaries[i].reset();
    }
  }
  // The first chunk stays, empty, as the last one; the rest are recycled.
  while (slots_.size() > 1) {
    spare_.push_back(std::move(slots_.back().chunk));
    slots_.pop_back();
  }
  ends_.assign(slots_.size(), 0);
  last_msg_id_ = -1;
}

std::vector<Event> EnabledView::to_vector() const {
  std::vector<Event> out;
  out.reserve(size_);
  for (const Event& e : *this) out.push_back(e);
  return out;
}

void EnabledView::Iterator::next_run() {
  const EnabledView& v = view_;
  for (;;) {
    const Event* run = nullptr;
    std::size_t n = 0;
    if (seg_ == 0) {
      run = v.resume_;
      n = v.nresume_;
      ++seg_;
    } else if (seg_ <= v.nsources_) {
      const EventChunks& src = v.sources_[seg_ - 1];
      if (chunk_ == src.chunk_count()) {
        ++seg_;
        chunk_ = 0;
        continue;
      }
      run = src.chunk_data(chunk_);
      n = src.chunk_size(chunk_);
      ++chunk_;
    } else if (seg_ == v.nsources_ + 1) {
      run = v.crash_;
      n = v.ncrash_;
      ++seg_;
    } else if (seg_ == v.nsources_ + 2) {
      run = v.tick_;
      n = v.tick_ != nullptr ? 1 : 0;
      ++seg_;
    } else {
      cur_ = run_end_ = nullptr;
      return;
    }
    if (n > 0) {
      cur_ = run;
      run_end_ = run + n;
      return;
    }
  }
}

}  // namespace blunt::sim
