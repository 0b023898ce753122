// Coroutine plumbing for processor programs.
//
// A processor's behaviour is written as an ordinary C++20 coroutine:
//
//   ProcMain my_protocol(Proc& self, ...) {
//     auto got = co_await self.write_read(c_out, Message::of(42), c_in);
//     ...
//     auto ps = co_await algo::partial_sums(self, ...);  // a sub-protocol
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
// The paper's composition ("using the Partial-Sums algorithm, ...") is a
// one-line co_await. A sub-protocol is a step awaiter (Proc::StepAwaiter
// in proc.hpp): a state machine held in the awaiter, in the caller's
// frame, that the engine steps from one channel action to the next, so a
// processor's program is its only frame. Task<T> remains for composition
// that is truly recursive or rare — the virtual, recursive, rank-sort and
// merge-sort group programs: an awaitable subroutine bound to the same
// processor, with a frame of its own. Awaiting it transfers control
// into the subroutine; the subroutine's own cycle awaits register
// themselves as the processor's resume point, so the Network always
// resumes the innermost active coroutine. On completion, control
// symmetrically transfers back to the awaiting parent.
#pragma once

#include <coroutine>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>


namespace mcb {

class Proc;

template <typename T>
class Task;

namespace detail {

/// Charges a frame of `bytes` to the network of `self`
/// (RunStats::frame_allocs and frame_bytes), and a program frame taken
/// from that network's program-frame region (defined in proc.cpp, where
/// Network is complete).
void charge_frame(Proc& self, std::size_t bytes);
void* program_frame(Proc& self, std::size_t bytes);

/// Mixed into Task's promise: its frame comes from plain operator new, and
/// the frame of a subroutine whose first parameter is `Proc& self` is
/// charged to self's network.
struct CountedFrame {
  static void* operator new(std::size_t bytes) { return ::operator new(bytes); }
  template <typename... Args>
  static void* operator new(std::size_t bytes, Proc& self, Args&...) {
    charge_frame(self, bytes);
    return ::operator new(bytes);
  }
};

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
struct TaskPromiseBase : CountedFrame {
  std::coroutine_handle<> continuation = nullptr;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise final : TaskPromiseBase<T> {
  std::optional<T> result;

  Task<T> get_return_object();
  void return_value(T v) { result.emplace(std::move(v)); }
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
      return std::move(*h_.promise().result);
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
/// function whose first parameter is `Proc& self` (a lambda's first after
/// its closure), then installed into self's Network, which drives it cycle
/// by cycle. The frame is charged to that network and carved from its
/// program-frame region, which Network::reset() rewinds: so the network
/// must outlive the program, and a program never installed must be gone
/// before the network's next reset().
class [[nodiscard]] ProcMain {
 public:
  struct promise_type {
    template <typename... Args>
    static void* operator new(std::size_t bytes, Proc& self, Args&...) {
      return detail::program_frame(self, bytes);
    }
    template <typename Closure, typename... Args>
    static void* operator new(std::size_t bytes, Closure&, Proc& self,
                              Args&...) {
      return detail::program_frame(self, bytes);
    }
    static void operator delete(void*) noexcept {}  // the region's

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
