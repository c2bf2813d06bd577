// Task<T>: the coroutine type used for simulated processes and object
// methods.
//
// Tasks are lazy (they run only when resumed) and chain continuations with
// symmetric transfer, so `co_await object.method(p)` runs the callee until
// the callee parks at a scheduler step, and resumes the caller in the same
// scheduler step when the callee returns. A method return is therefore not a
// separately scheduled step, matching the usual atomicity reduction: only
// shared-state accesses, message events, and random samples are
// adversary-visible scheduling points (see World).
//
// Lifetime rules (important):
//  * A Task owns its coroutine frame and destroys it in the destructor; it is
//    move-only.
//  * Destroying a Task whose frame is suspended destroys the frame, which in
//    turn destroys any temporary child Task bound in a pending `co_await`
//    expression, so whole call chains unwind cleanly at World teardown.
//  * Lambda coroutines keep their captures in the lambda OBJECT, not the
//    frame. World stores process bodies by value before invoking them (see
//    World::add_process) so captures stay alive.
//
// Frame storage: every Task frame is allocated through
// PromiseBase::operator new. A frame created while a World runs one of its
// processes (the World installs its pool around add_process's call of the
// body and around each resume) comes from that World's FramePool and goes
// back to it when destroyed, wherever that happens; the pool recycles the
// blocks, so a scheduler step that calls into an object method reuses the
// frames of earlier calls instead of reaching the heap. A frame created
// outside every World, or larger than the pool's biggest class, comes from
// the global operator new and goes back to it. Each block's 16-byte header
// names its owner (a pool, or none), so a frame always returns where it
// came from. A pool belongs to one World and dies with it, after the
// World's processes; a frame must not outlive its World, and the pool's
// destructor aborts if one did.
#pragma once

#include <sanitizer/asan_interface.h>

#include <array>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace blunt::sim {

template <typename T>
class Task;

namespace detail {

/// Recycles coroutine frames for one World: free lists in 64-byte size
/// classes of whole blocks (16-byte header plus frame), up to 1 KiB. Blocks
/// are taken from the heap on a class's first use and handed back to it
/// only when the pool is destroyed. Cached blocks are poisoned for
/// AddressSanitizer, so touching or destroying a frame after its
/// destruction is reported as it would be for a heap frame.
class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    BLUNT_ASSERT(live_ == 0, "coroutine frame outlived its World ("
                                 << live_ << " still live)");
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (Header* h = free_[c]; h != nullptr;) {
        Header* const next = h->next;
        ASAN_UNPOISON_MEMORY_REGION(h + 1, block_bytes(c) - kHeaderBytes);
        ::operator delete(h, block_bytes(c));
        h = next;
      }
    }
  }

  /// A frame of `size` bytes, from the pool installed on this thread if
  /// any (see Scope) and the frame fits its classes, else from the heap.
  static void* allocate(std::size_t size) {
    FramePool* pool = tls_current;
    const std::size_t bytes = size + kHeaderBytes;
    Header* h = nullptr;
    if (pool != nullptr && bytes <= kMaxBlockBytes) {
      const std::size_t c = (bytes - 1) / kClassBytes;
      h = pool->free_[c];
      if (h != nullptr) {
        pool->free_[c] = h->next;
        ASAN_UNPOISON_MEMORY_REGION(h + 1, block_bytes(c) - kHeaderBytes);
      } else {
        h = static_cast<Header*>(::operator new(block_bytes(c)));
      }
      ++pool->live_;
    } else {
      pool = nullptr;
      h = static_cast<Header*>(::operator new(bytes));
    }
    h->owner = pool;
    return h + 1;
  }

  /// Returns the frame `allocate(size)` made to where it came from.
  static void deallocate(void* frame, std::size_t size) noexcept {
    Header* const h = static_cast<Header*>(frame) - 1;
    FramePool* const pool = h->owner;
    const std::size_t bytes = size + kHeaderBytes;
    if (pool == nullptr) {
      ::operator delete(h, bytes);
      return;
    }
    const std::size_t c = (bytes - 1) / kClassBytes;
    ASAN_POISON_MEMORY_REGION(frame, block_bytes(c) - kHeaderBytes);
    h->next = pool->free_[c];
    pool->free_[c] = h;
    --pool->live_;
  }

  /// Installs `pool` as this thread's frame source until the scope ends,
  /// then restores the previous one (a World run from inside another
  /// World's process nests).
  class Scope {
   public:
    explicit Scope(FramePool* pool) : prev_(tls_current) {
      tls_current = pool;
    }
    ~Scope() { tls_current = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FramePool* prev_;
  };

 private:
  // Precedes every frame; 16 bytes keep the frame 16-byte aligned.
  struct Header {
    FramePool* owner;  // null: the block came from the heap
    Header* next;      // free-list link while cached
  };
  static_assert(sizeof(Header) == 16);
  static constexpr std::size_t kHeaderBytes = sizeof(Header);
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 16;
  static constexpr std::size_t kMaxBlockBytes = kClasses * kClassBytes;

  [[nodiscard]] static constexpr std::size_t block_bytes(std::size_t c) {
    return (c + 1) * kClassBytes;
  }

  // The pool of the World now running a process on this thread, or null.
  static inline thread_local FramePool* tls_current = nullptr;

  std::array<Header*, kClasses> free_{};
  std::size_t live_ = 0;  // blocks handed out and not yet returned
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  static void* operator new(std::size_t size) {
    return FramePool::allocate(size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FramePool::deallocate(frame, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) const noexcept {
      auto& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }
  [[nodiscard]] Handle handle() const { return handle_; }

  /// Awaiting a task transfers control to it (symmetric transfer) and
  /// resumes the awaiter when the task completes.
  auto operator co_await() {
    struct Awaiter {
      Handle h;
      [[nodiscard]] bool await_ready() const { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        BLUNT_ASSERT(h, "awaiting an empty Task");
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          BLUNT_ASSERT(p.value.has_value(),
                       "Task completed without producing a value");
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Result of a completed Task (root tasks are driven by the World, not
  /// awaited).
  template <typename U = T>
  [[nodiscard]] const U& result() const
    requires(!std::is_void_v<U> && std::is_same_v<U, T>)
  {
    BLUNT_ASSERT(done(), "Task::result on unfinished task");
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    return *p.value;
  }

  /// Rethrows the stored exception, if any (for void root tasks).
  void rethrow_if_exception() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace blunt::sim
