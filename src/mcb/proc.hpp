// Per-processor context: the API that processor programs use to interact
// with the network, one synchronous cycle at a time.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/message.hpp"
#include "mcb/types.hpp"

namespace mcb {

class Network;

/// A channel write intent for the coming cycle.
struct WriteOp {
  ChannelId channel = 0;
  Message msg;
};

class Proc {
 public:
  /// The result of a cycle from this processor's point of view: the message
  /// observed on the channel it read, or nullopt on silence / no read.
  using ReadResult = std::optional<Message>;

  ProcId id() const { return id_; }
  std::size_t p() const;  ///< processors in the network
  std::size_t k() const;  ///< channels in the network

  /// Number of network cycles completed so far.
  Cycle now() const;

  // --- cycle operations (awaitable; each consumes exactly one cycle) -----

  /// Full generality: optionally write one channel and read one channel.
  /// Yields the message read (nullopt on silence or when not reading).
  /// Same as cycle_after(0, write, read).
  struct CycleAwaiter;
  CycleAwaiter cycle(std::optional<WriteOp> write,
                     std::optional<ChannelId> read);

  /// Idles `idle` cycles, then acts as cycle(write, read) in the next one.
  /// Observably identical to `co_await skip(idle); co_await cycle(write,
  /// read);` but suspends once: the intent applies in cycle now() + idle
  /// and the processor resumes after it. The paper's protocols wait their
  /// turn by counting cycles and then act, so this is their common step.
  CycleAwaiter cycle_after(Cycle idle, std::optional<WriteOp> write,
                           std::optional<ChannelId> read);

  CycleAwaiter write(ChannelId ch, Message m);
  CycleAwaiter read(ChannelId ch);
  CycleAwaiter write_read(ChannelId wch, Message m, ChannelId rch);
  CycleAwaiter step();  ///< participate in a cycle doing nothing

  /// Sleep for `t >= 1` cycles without being rescheduled (equivalent to t
  /// consecutive step()s but O(1) simulation work). Used for the paper's
  /// "wait your turn by counting cycles" synchronization.
  struct SkipAwaiter;
  SkipAwaiter skip(Cycle t);

  /// Section 9 extension (requires SimConfig::multi_read): optionally write
  /// one channel and read EVERY channel this cycle. Yields one ReadResult
  /// per channel.
  struct MultiReadAwaiter;
  MultiReadAwaiter cycle_all(std::optional<WriteOp> write);

  // --- accounting helpers ------------------------------------------------

  /// Reports this processor's current auxiliary storage in words; the run
  /// statistics record the maximum. Used to validate the O(1)/O(n) memory
  /// claims of Section 6.1.
  void note_aux(std::size_t words);

  /// Marks the start of a named algorithm phase (records global cycle and
  /// message counters). By convention only processor 0 calls this.
  void mark_phase(std::string name);

  /// Span marks forwarded to the network's SpanSink (see obs::Span, which
  /// is the intended RAII entry point). By convention only processor 0
  /// emits spans; no-ops without a sink.
  void span_begin(std::string_view name);
  void span_end();

  // --- awaiters -----------------------------------------------------------

  struct CycleAwaiter {
    Proc& proc;
    Cycle idle;  ///< cycles slept before the channel action
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    ReadResult await_resume() const noexcept;
  };

  struct SkipAwaiter {
    Proc& proc;
    Cycle t;
    bool await_ready() const noexcept { return t == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };

  struct MultiReadAwaiter {
    Proc& proc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    std::vector<ReadResult> await_resume() const noexcept;
  };

 private:
  friend class Network;
  friend struct ProcMain::promise_type::FinalAwaiter;

  Proc(Network& net, ProcId id) : net_(&net), id_(id) {}
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  // Sets the done flag in the network's ProcTable (defined in proc.cpp,
  // where Network is complete).
  void mark_done();

  // Proc is a thin handle: all hot per-processor state (wake cycle, channel
  // intents, read results, resume handle) lives in the Network's ProcTable
  // (mcb/proc_table.hpp), indexed by id_, so the engines scan flat arrays
  // instead of chasing per-processor heap objects.
  Network* net_;
  ProcId id_;
};

inline std::coroutine_handle<>
ProcMain::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  if (h.promise().proc != nullptr) {
    h.promise().proc->mark_done();
  }
  return std::noop_coroutine();
}

}  // namespace mcb
