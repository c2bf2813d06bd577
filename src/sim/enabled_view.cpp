#include "sim/enabled_view.hpp"

namespace blunt::sim {

void EventChunks::add_chunk() {
  if (spare_.empty()) {
    slots_.push_back({std::make_unique<Chunk>()});
  } else {
    slots_.push_back({std::move(spare_.back())});
    spare_.pop_back();
  }
}

void EventChunks::clear() {
  for (Slot& s : slots_) {
    for (std::size_t i = 0; i < s.n; ++i) s.chunk->summaries[i].reset();
    s.n = 0;
  }
  // The first chunk stays, empty, as the last one; the rest are recycled.
  while (slots_.size() > 1) {
    spare_.push_back(std::move(slots_.back().chunk));
    slots_.pop_back();
  }
  size_ = 0;
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
