// The adversary's read-only window onto the World's enabled-index.
//
// World::enabled_events() hands out an EnabledView over the index segments
// themselves, in the canonical order (DESIGN.md §14): the resume region,
// every delivery source's cache, the crash region, and the fault tick.
// Nothing is copied: size() is O(1) and iteration O(1) per element. Looking
// one element up by index (operator[], which World::run calls once per step)
// walks the handful of sources and bisects its source's running chunk
// counts, so it costs O(log C) in that source's C chunks; the erase that
// executing the looked-up delivery then makes starts where the lookup
// ended, with no search.
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
/// Beside the chunks sit two tables: the slots, each holding a chunk and the
/// first id pushed into it, which a search for an id bisects, and the
/// running count of events up to and including each chunk, which
/// operator[] bisects. Summaries (full trace detail only) live in stable
/// heap storage that the events' `what` views point into, freed on erase.
class EventChunks {
 public:
  static constexpr std::size_t kChunkSize = 64;

  [[nodiscard]] std::size_t size() const {
    return ends_.empty() ? 0 : ends_.back();
  }

  /// The i-th event in msg_id order: the first chunk whose running count
  /// exceeds i holds it. Records where it was found, for erase().
  [[nodiscard]] const Event& operator[](std::size_t i) const {
    BLUNT_ASSERT(i < size(), "event index out of range");
    // Each halving selects rather than branches: a branch on the index
    // would mispredict about every other time.
    const std::size_t* first = ends_.data();
    for (std::size_t len = ends_.size(); len > 1;) {
      const std::size_t half = len / 2;
      first = first[half] <= i ? first + half : first;
      len -= half;
    }
    const std::size_t c =
        static_cast<std::size_t>(first - ends_.data()) + (*first <= i ? 1 : 0);
    const std::size_t pos = c == 0 ? i : i - ends_[c - 1];
    found_ = {c, pos};
    return slots_[c].chunk->events[pos];
  }

  /// Appends `e`, whose msg_id must exceed every one pushed since the last
  /// clear(). With a summary (full trace detail; every event of a World has
  /// one or none does), e.what is pointed at it.
  void push_back(Event e, std::unique_ptr<std::string> summary) {
    BLUNT_ASSERT(e.msg_id > last_msg_id_, "pushed insert out of msg_id order");
    last_msg_id_ = e.msg_id;
    if (slots_.empty() || chunk_size(slots_.size() - 1) == kChunkSize) {
      add_chunk();
    }
    const std::size_t n = chunk_size(slots_.size() - 1);
    Slot& s = slots_.back();
    if (n == 0) s.first_id = e.msg_id;
    if (summary != nullptr) {
      e.what = *summary;
      s.chunk->summaries[n] = std::move(summary);
      summaries_ = true;
    }
    s.chunk->events[n] = e;
    ++ends_.back();
  }
  /// Removes the event with `msg_id`, which must be stored. When it is the
  /// event operator[] returned last (World::run executes the event it just
  /// looked up), no search is needed.
  void erase(int msg_id);
  void clear();

  // Chunk access for EnabledView's cursor. Only the last chunk can be empty.
  [[nodiscard]] std::size_t chunk_count() const { return slots_.size(); }
  [[nodiscard]] const Event* chunk_data(std::size_t c) const {
    return slots_[c].chunk->events.data();
  }
  [[nodiscard]] std::size_t chunk_size(std::size_t c) const {
    return c == 0 ? ends_[0] : ends_[c] - ends_[c - 1];
  }

 private:
  struct Chunk {
    std::array<Event, kChunkSize> events;
    std::array<std::unique_ptr<std::string>, kChunkSize> summaries;
  };
  struct Slot {
    std::unique_ptr<Chunk> chunk;
    // The msg_id of the first event pushed into the chunk since it was last
    // empty: a bound above every id in earlier chunks and at or below every
    // id in this one, however many of its events are erased.
    int first_id = 0;
  };
  /// Where operator[] found its event: chunk and position in it.
  struct Place {
    std::size_t chunk = 0;
    std::size_t pos = 0;
  };

  void add_chunk();
  /// The chunk and position of `msg_id`, found by bisection.
  [[nodiscard]] Place search(int msg_id) const;

  std::vector<Slot> slots_;
  // ends_[c]: the events in chunks 0..c (parallel to slots_). An append
  // bumps the last entry, an erase decrements its chunk's entry and every
  // later one, and an emptied chunk's entry leaves with its slot.
  std::vector<std::size_t> ends_;
  std::vector<std::unique_ptr<Chunk>> spare_;  // emptied, reused by add_chunk
  int last_msg_id_ = -1;
  bool summaries_ = false;  // events carry summaries (full trace detail)
  // The last operator[] result: a hint that erase() checks against the id
  // it is given, so it can never be stale. A World and its views run on one
  // thread, so the const lookup may write it.
  mutable Place found_;
};

inline void EventChunks::erase(int msg_id) {
  Place at = found_;
  if (at.chunk >= slots_.size() || at.pos >= chunk_size(at.chunk) ||
      slots_[at.chunk].chunk->events[at.pos].msg_id != msg_id) {
    at = search(msg_id);
  }
  const std::size_t n = chunk_size(at.chunk);
  Chunk& chunk = *slots_[at.chunk].chunk;
  const auto pos = static_cast<std::ptrdiff_t>(at.pos);
  const auto end = static_cast<std::ptrdiff_t>(n);
  std::move(chunk.events.begin() + pos + 1, chunk.events.begin() + end,
            chunk.events.begin() + pos);
  if (summaries_) {
    // Moving the owners leaves every other summary's address, and so every
    // event's `what`, intact; the erased one is freed by the assignment.
    std::move(chunk.summaries.begin() + pos + 1,
              chunk.summaries.begin() + end, chunk.summaries.begin() + pos);
    chunk.summaries[n - 1].reset();
  }
  // Every running count from the erased event's chunk on drops by one.
  // Blocks of four let GCC use vector ops at -O2 too, where it vectorizes
  // no loop of unknown length.
  std::size_t* count = ends_.data() + at.chunk;
  std::size_t* const counts_end = ends_.data() + ends_.size();
  for (; counts_end - count >= 4; count += 4) {
    for (int k = 0; k < 4; ++k) --count[k];
  }
  for (; count != counts_end; ++count) --*count;
  if (n == 1 && at.chunk + 1 != slots_.size()) {
    const auto c = static_cast<std::ptrdiff_t>(at.chunk);
    spare_.push_back(std::move(slots_[at.chunk].chunk));
    slots_.erase(slots_.begin() + c);
    ends_.erase(ends_.begin() + c);
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

  /// O(1) in the resume region; a delivery walks the sources and then
  /// bisects its own source's chunk counts.
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
