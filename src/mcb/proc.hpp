// Per-processor context: the API that processor programs use to interact
// with the network, one synchronous cycle at a time.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

/// One cycle of a Proc::burst_after: write `msg` on channel `write` and/or
/// read channel `read`; kNoChannel leaves that half out (a beat with
/// neither is an idle cycle).
struct Beat {
  Message msg;
  ChannelId write = kNoChannel;
  ChannelId read = kNoChannel;
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

  /// A fixed run of channel actions in one suspension: observably identical
  /// to cycle_after(idle, beat 0) followed by cycle_after(0, beat j) for
  /// each later beat. The engine applies beat j in cycle now() + idle + j
  /// and stores its read in got[j] without resuming the processor; the
  /// processor resumes after the last beat. `beats` and `got` must stay
  /// alive until then. Every beat is validated here: channels must be < k,
  /// and `got` must hold one slot per beat, or be empty when no beat reads.
  /// Use it for windows whose actions are known up front (Columnsort's
  /// gather, transformations and redistribution); a single action stays on
  /// cycle_after.
  struct BurstAwaiter;
  BurstAwaiter burst_after(Cycle idle, std::span<const Beat> beats,
                           std::span<ReadResult> got);
  /// A temporary container would die before the burst runs.
  template <typename Beats>
    requires(!std::is_lvalue_reference_v<Beats> &&
             !std::ranges::borrowed_range<Beats>)
  BurstAwaiter burst_after(Cycle idle, Beats&& beats,
                           std::span<ReadResult> got) = delete;

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

  struct BurstAwaiter {
    Proc& proc;
    Cycle idle;  ///< cycles slept before beat 0
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept;  ///< stores the last beat's read
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
