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
// processor's program is its only coroutine and its only frame, and the
// Network resumes that program whenever an action ends.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace mcb {

class Proc;

namespace detail {

/// A program frame of `bytes`, carved from the program-frame region of
/// self's network and charged to it (RunStats::frame_allocs and
/// frame_bytes); defined in proc.cpp, where Network is complete.
void* program_frame(Proc& self, std::size_t bytes);

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

    std::exception_ptr exception;

    ProcMain get_return_object() {
      return ProcMain(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // Suspends at the end: the Network, which resumed the program, sees it
    // done() as the resume returns.
    std::suspend_always final_suspend() noexcept { return {}; }
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
