// The adversary's read-only window onto the World's enabled-index.
//
// World::enabled_events() hands out an EnabledView over the index segments
// themselves, in the canonical order (DESIGN.md §14): the resume region,
// every delivery source's cache, the crash region, and the fault tick.
// Nothing is copied: size() is O(1) and iteration O(1) per element. Looking
// one element up by index (operator[], which World::run calls once per step)
// walks the sources and then its source's chunk table, so that lookup still
// grows with the messages in flight, by one slot per kChunkSize of them.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "sim/event.hpp"

namespace blunt::sim {

/// One delivery source's slice of the enabled-index: its deliverable events
/// in msg_id order, kept in append-only chunks of kChunkSize events. An
/// erase shifts the tail of one chunk only; a chunk it empties is recycled
/// for later appends (the last chunk simply stays, empty, to take them).
/// Each chunk's size and id bound sit in one contiguous slot table, so a
/// lookup walks or bisects that table without touching the chunks.
/// Summaries (full trace detail only) live in stable heap storage that the
/// events' `what` views point into, freed on erase.
class EventChunks {
 public:
  static constexpr std::size_t kChunkSize = 64;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// The i-th event in msg_id order: walks the chunk sizes.
  [[nodiscard]] const Event& operator[](std::size_t i) const {
    for (const Slot& s : slots_) {
      if (i < s.n) return s.chunk->events[i];
      i -= s.n;
    }
    BLUNT_UNREACHABLE("event index out of range");
  }

  /// Appends `e`, whose msg_id must exceed every one pushed since the last
  /// clear(). With a summary (full trace detail; every event of a World has
  /// one or none does), e.what is pointed at it.
  void push_back(Event e, std::unique_ptr<std::string> summary) {
    BLUNT_ASSERT(e.msg_id > last_msg_id_, "pushed insert out of msg_id order");
    last_msg_id_ = e.msg_id;
    if (slots_.empty() || slots_.back().n == kChunkSize) add_chunk();
    Slot& s = slots_.back();
    if (s.n == 0) s.first_id = e.msg_id;
    if (summary != nullptr) {
      e.what = *summary;
      s.chunk->summaries[s.n] = std::move(summary);
      summaries_ = true;
    }
    s.chunk->events[s.n++] = e;
    ++size_;
  }
  /// Removes the event with `msg_id`, which must be stored.
  void erase(int msg_id);
  void clear();

  // Chunk access for EnabledView's cursor. Only the last chunk can be empty.
  [[nodiscard]] std::size_t chunk_count() const { return slots_.size(); }
  [[nodiscard]] const Event* chunk_data(std::size_t c) const {
    return slots_[c].chunk->events.data();
  }
  [[nodiscard]] std::size_t chunk_size(std::size_t c) const {
    return slots_[c].n;
  }

 private:
  struct Chunk {
    std::array<Event, kChunkSize> events;
    std::array<std::unique_ptr<std::string>, kChunkSize> summaries;
  };
  struct Slot {
    std::unique_ptr<Chunk> chunk;
    std::size_t n = 0;
    // The msg_id of the first event pushed into the chunk since it was last
    // empty: a bound above every id in earlier chunks and at or below every
    // id in this one, however many of its events are erased.
    int first_id = 0;
  };

  void add_chunk();

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Chunk>> spare_;  // emptied, reused by add_chunk
  std::size_t size_ = 0;
  int last_msg_id_ = -1;
  bool summaries_ = false;  // events carry summaries (full trace detail)
};

inline void EventChunks::erase(int msg_id) {
  // The last chunk whose first_id is at most msg_id holds it.
  auto sit = std::upper_bound(
      slots_.begin(), slots_.end(), msg_id,
      [](int id, const Slot& s) { return id < s.first_id; });
  BLUNT_ASSERT(sit != slots_.begin(),
               "pushed erase of unindexed msg " << msg_id);
  --sit;
  Slot& s = *sit;
  Event* const first = s.chunk->events.data();
  Event* const last = first + s.n;
  Event* const it =
      std::lower_bound(first, last, msg_id,
                       [](const Event& e, int id) { return e.msg_id < id; });
  BLUNT_ASSERT(it != last && it->msg_id == msg_id,
               "pushed erase of unindexed msg " << msg_id);
  const auto pos = static_cast<std::ptrdiff_t>(it - first);
  std::move(it + 1, last, it);
  if (summaries_) {
    // Moving the owners leaves every other summary's address, and so every
    // event's `what`, intact; the erased one is freed by the assignment.
    auto& sums = s.chunk->summaries;
    std::move(sums.begin() + pos + 1,
              sums.begin() + static_cast<std::ptrdiff_t>(s.n),
              sums.begin() + pos);
    sums[s.n - 1].reset();
  }
  --s.n;
  --size_;
  if (s.n == 0 && sit + 1 != slots_.end()) {
    spare_.push_back(std::move(s.chunk));
    slots_.erase(sit);
  }
}

/// A read-only sequence of enabled events in canonical order, as
/// World::enabled_events() hands it out. It reads the index in place — its
/// elements (and the string_views inside them) are valid until the next
/// enabled_events() or execute(), so code that executes while iterating must
/// copy first (to_vector()).
class EnabledView {
 public:
  class Iterator;

  EnabledView() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// O(1) in the resume region; a delivery walks the sources and then the
  /// chunks of its own source.
  [[nodiscard]] const Event& operator[](std::size_t i) const {
    if (i < nresume_) return resume_[i];
    i -= nresume_;
    for (std::size_t s = 0; s < nsources_; ++s) {
      const std::size_t n = sources_[s].size();
      if (i < n) return sources_[s][i];
      i -= n;
    }
    if (i < ncrash_) return crash_[i];
    BLUNT_ASSERT(i == ncrash_ && tick_ != nullptr,
                 "enabled-view index out of range");
    return *tick_;
  }

  [[nodiscard]] Iterator begin() const;
  [[nodiscard]] Iterator end() const;

  /// Copies the events out. Their `what` views still borrow.
  [[nodiscard]] std::vector<Event> to_vector() const;

  /// This view with its crash segment left out (the World offers every crash
  /// event there, as one contiguous block). Element i of it is element
  /// with_crashes_index(i) here.
  [[nodiscard]] EnabledView without_crashes() const {
    EnabledView v = *this;
    v.crash_ = nullptr;
    v.ncrash_ = 0;
    v.size_ -= ncrash_;
    return v;
  }
  /// Maps an index into without_crashes() back to this view: only an
  /// element after the crash block (the tick) moves, by the block's length.
  [[nodiscard]] std::size_t with_crashes_index(std::size_t i) const {
    const std::size_t crash_begin = size_ - ncrash_ - (tick_ ? 1 : 0);
    return i < crash_begin ? i : i + ncrash_;
  }

 private:
  friend class World;

  EnabledView(const std::vector<Event>& resume,
              const std::vector<EventChunks>& sources,
              const std::vector<Event>* crash, const Event* tick)
      : resume_(resume.data()),
        nresume_(resume.size()),
        sources_(sources.data()),
        nsources_(sources.size()),
        crash_(crash != nullptr ? crash->data() : nullptr),
        ncrash_(crash != nullptr ? crash->size() : 0),
        tick_(tick) {
    size_ = nresume_ + ncrash_ + (tick_ != nullptr ? 1 : 0);
    for (std::size_t s = 0; s < nsources_; ++s) size_ += sources_[s].size();
  }

  // Segments in canonical order.
  const Event* resume_ = nullptr;
  std::size_t nresume_ = 0;
  const EventChunks* sources_ = nullptr;
  std::size_t nsources_ = 0;
  const Event* crash_ = nullptr;
  std::size_t ncrash_ = 0;
  const Event* tick_ = nullptr;
  std::size_t size_ = 0;
};

/// Forward iterator and segment cursor: walks one contiguous run (a region,
/// a chunk, the tick) with a pointer and steps to the next run at its end,
/// so each element costs O(1). It keeps a copy of its view's segment
/// table, so it stays valid as long as the storage the view reads.
class EnabledView::Iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Event;
  using difference_type = std::ptrdiff_t;
  using pointer = const Event*;
  using reference = const Event&;

  Iterator() = default;

  reference operator*() const { return *cur_; }
  pointer operator->() const { return cur_; }
  Iterator& operator++() {
    if (++cur_ == run_end_) next_run();
    return *this;
  }
  Iterator operator++(int) {
    Iterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const Iterator& a, const Iterator& b) {
    return a.cur_ == b.cur_;
  }

 private:
  friend class EnabledView;

  explicit Iterator(const EnabledView& v) : view_(v) { next_run(); }

  /// Moves to the first element of the next non-empty run; past the tick,
  /// becomes the end iterator (cur_ == nullptr).
  void next_run();

  EnabledView view_;
  const Event* cur_ = nullptr;
  const Event* run_end_ = nullptr;
  // The run after the current one: segment 0 is the resume region,
  // 1..nsources_ the sources (chunk by chunk), then the crash block, then
  // the tick.
  std::size_t seg_ = 0;
  std::size_t chunk_ = 0;
};

inline EnabledView::Iterator EnabledView::begin() const {
  return Iterator(*this);
}

inline EnabledView::Iterator EnabledView::end() const { return Iterator(); }

}  // namespace blunt::sim
