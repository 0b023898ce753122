// Coroutine plumbing for processor programs.
//
// A processor's behaviour is written as an ordinary C++20 coroutine:
//
//   ProcMain my_protocol(Proc& self, ...) {
//     auto got = co_await self.write_read(c_out, Message::of(42), c_in);
//     ...
//     co_await sub_phase(self, ...);   // compose algorithms (Task<T>)
//   }
//
// Execution model: a processor suspends at a cycle boundary by awaiting a
// Proc channel action (see proc.hpp) — one cycle, or a whole window of
// them — and the Network resumes it once that action is over. The awaiter
// registers the processor's wake cycle and channel intents with the
// Network's scheduler, so sleeping processors (the idle parts of a
// Proc::window) cost nothing until they are due. Between two suspensions
// a processor performs arbitrary local computation — the "write, read,
// compute" cycle of Section 2 of the paper.
//
// Task<T> is an awaitable subroutine bound to the same processor. Awaiting
// it transfers control into the subroutine; the subroutine's own cycle
// awaits register themselves as the processor's resume point, so the Network
// always resumes the innermost active coroutine. On completion, control
// symmetrically transfers back to the awaiting parent. This makes the
// paper's composition ("using the Partial-Sums algorithm, ...") a one-line
// co_await.
#pragma once

#include <coroutine>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>

#include "util/arena.hpp"

namespace mcb {

class Proc;

template <typename T>
class Task;

namespace detail {

/// Mixed into every promise type so coroutine frames allocate from the
/// thread-local frame arena (util/arena.hpp) when one is installed —
/// Network::run() installs its own — and from global new otherwise. The
/// per-frame header written by frame_allocate routes the matching delete,
/// so frames may legally outlive the arena *scope* (e.g. a suspended
/// program destroyed by ~Network after run() returned). Compiled out by
/// -DMCB_FRAME_ARENA=OFF, which falls back to global new/delete frames.
struct FrameAlloc {
#if MCB_FRAME_ARENA_ENABLED
  static void* operator new(std::size_t bytes) {
    return util::frame_allocate(bytes);
  }
  static void operator delete(void* p) noexcept {
    util::frame_deallocate(p);
  }
  static void operator delete(void* p, std::size_t) noexcept {
    util::frame_deallocate(p);
  }
#endif
};

/// The frame of a program whose first parameter is `Proc& self`, from the
/// arena of self's network (defined in proc.cpp, where Network is
/// complete).
void* program_frame_allocate(std::size_t bytes, Proc& self);

/// Final awaiter of Task<T>: symmetric transfer back to the awaiting parent.
struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct TaskPromiseBase : FrameAlloc {
  std::coroutine_handle<> continuation = nullptr;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

/// The result lives in raw storage with an engaged flag instead of a
/// std::optional<T>: the value is written exactly once (return_value) and
/// moved out exactly once (await_resume), so the optional's re-engagement
/// machinery is pure overhead on a path executed once per co_await.
template <typename T>
struct TaskPromise final : TaskPromiseBase<T> {
  alignas(T) unsigned char storage[sizeof(T)];
  bool engaged = false;

  TaskPromise() noexcept {}
  ~TaskPromise() {
    if (engaged) result().~T();
  }
  TaskPromise(const TaskPromise&) = delete;
  TaskPromise& operator=(const TaskPromise&) = delete;

  T& result() noexcept {
    return *std::launder(reinterpret_cast<T*>(storage));
  }
  Task<T> get_return_object();
  void return_value(T v) {
    ::new (static_cast<void*>(storage)) T(std::move(v));
    engaged = true;
  }
};

template <>
struct TaskPromise<void> final : TaskPromiseBase<void> {
  Task<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

/// An awaitable subroutine running on the same processor as its awaiter.
/// Move-only; owns the coroutine frame. Must be awaited exactly once (the
/// [[nodiscard]] catches the common mistake of calling a protocol subroutine
/// without co_await, which would silently run nothing).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> parent) noexcept {
    h_.promise().continuation = parent;
    return h_;  // symmetric transfer into the subroutine
  }
  T await_resume() {
    if (h_.promise().exception) {
      std::rethrow_exception(h_.promise().exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(h_.promise().result());
    }
  }

 private:
  handle_type h_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

/// Top-level program of one processor. Created by calling a coroutine
/// function, then installed into a Network which drives it cycle by cycle.
///
/// A program whose first parameter is `Proc& self` takes its frame from
/// the arena of self's network, so p programs cost p arena blocks, not p
/// global allocations, and reset() recycles them for the next install;
/// that network must outlive the program (it does when the program is
/// installed there). Any other program (a lambda, say, whose first
/// argument is the closure) falls back to FrameAlloc's plain operator new.
class [[nodiscard]] ProcMain {
 public:
  struct promise_type : detail::FrameAlloc {
#if MCB_FRAME_ARENA_ENABLED
    using detail::FrameAlloc::operator new;
    template <typename... Args>
    static void* operator new(std::size_t bytes, Proc& self, Args&...) {
      return detail::program_frame_allocate(bytes, self);
    }
#endif

    Proc* proc = nullptr;  // wired up by Network::install
    std::exception_ptr exception;

    ProcMain get_return_object() {
      return ProcMain(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // Defined in proc.hpp (needs Proc to be complete): marks the processor
    // done so the Network stops scheduling it.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }
  };
  using handle_type = std::coroutine_handle<promise_type>;

  explicit ProcMain(handle_type h) : h_(h) {}
  ProcMain(ProcMain&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  ProcMain& operator=(ProcMain&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ProcMain(const ProcMain&) = delete;
  ProcMain& operator=(const ProcMain&) = delete;
  ~ProcMain() {
    if (h_) h_.destroy();
  }

  handle_type handle() const { return h_; }

 private:
  handle_type h_;
};

}  // namespace mcb
