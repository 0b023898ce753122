// Per-processor context: the API that processor programs use to interact
// with the network, one synchronous cycle at a time.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

/// One cycle of a Proc::window: write `msg` on channel `write` and/or read
/// channel `read`; kNoChannel leaves that half out (a beat with neither is
/// an idle cycle).
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

  /// A window's callbacks as the engine stores them, over a run of beats
  /// j0, j0 + 1, ...: fill stores them in `out`; place hands each one of
  /// `beats` that reads its result in `got`. `ctx` is the awaiter.
  using FillFn = void (*)(void* ctx, std::size_t j0, std::span<Beat> out);
  using PlaceFn = void (*)(void* ctx, std::size_t j0,
                           std::span<const Beat> beats,
                           std::span<ReadResult> got);

  /// The fill of a window of no beats, or the place of one that keeps no
  /// reads.
  struct NoFn {};

  ProcId id() const { return id_; }
  std::size_t p() const;  ///< processors in the network
  std::size_t k() const;  ///< channels in the network

  /// Number of network cycles completed so far.
  Cycle now() const;

  // --- channel actions (awaitable) ----------------------------------------
  //
  // Every protocol in the paper is a fixed transmission schedule: count
  // cycles to your turn, act over a known window, sleep. That is the one
  // primitive, Proc::window; cycle_after is its one-beat spelling and the
  // zero-beat window is a sleep.

  /// The channel-action primitive: idle `lead` cycles, act for `beats`
  /// cycles, idle `trail` cycles, then resume — one suspension. Beat j
  /// applies in cycle now() + lead + j and is `fill(j)`, a plain function
  /// returning a Beat; each beat that reads hands its ReadResult (nullopt
  /// on silence) to `place(j, got)`. fill(0) runs here; the engine runs
  /// the rest, in order of j, each fill(j) before beat j applies and each
  /// place(j) after it completes — for a window of more than
  /// ProcTable::kBlock beats, a block of beats at a time — and all before
  /// the processor resumes (a one-beat window places as it resumes, the
  /// way cycle_after returns its read). So a fill must not depend on the
  /// window's own reads, and neither may suspend; an exception from either
  /// aborts run(). Both live in the awaiter, so what they capture must
  /// outlive it: build it in its own statement (`auto aw =
  /// self.window(...); co_await aw;`). Channels are validated as each beat
  /// loads (< k).
  template <typename Fill, typename Place>
  struct WindowAwaiter;
  template <typename Fill, typename Place = NoFn>
  WindowAwaiter<Fill, Place> window(Cycle lead, std::size_t beats, Cycle trail,
                                    Fill fill, Place place = {}) {
    require_beats(beats);
    // A window of one beat is a cycle_after whose read goes to place: the
    // engine keeps no callback for it, and the awaiter places the read
    // (kept through the trail) as the processor resumes.
    const bool reads = beats > 0 && load_beat(fill(std::size_t{0}));
    return {*this, lead, beats, trail, beats == 1 && reads, std::move(fill),
            std::move(place)};
  }

  /// A window of zero beats: sleep `idle` cycles (none: no suspension).
  WindowAwaiter<NoFn, NoFn> window(Cycle idle);

  /// One beat with its intent stored inline (no callback): idle `idle`
  /// cycles, optionally write one channel and read one channel in the next,
  /// idle `trail` more, resume. Yields the message read (nullopt on silence
  /// or when not reading). The paper's protocols wait their turn by
  /// counting cycles and then act, so this is their common step.
  struct CycleAwaiter;
  CycleAwaiter cycle_after(Cycle idle, std::optional<WriteOp> write,
                           std::optional<ChannelId> read, Cycle trail = 0);

  /// cycle_after(0, write, read) and its one-sided spellings.
  CycleAwaiter cycle(std::optional<WriteOp> write,
                     std::optional<ChannelId> read);
  CycleAwaiter write(ChannelId ch, Message m);
  CycleAwaiter read(ChannelId ch);
  CycleAwaiter write_read(ChannelId wch, Message m, ChannelId rch);

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
  /// message counters, and begins the phase's span; Network::mark_phase).
  /// By convention only processor 0 calls this.
  void mark_phase(std::string name);

  /// Span marks forwarded to the network's SpanSink (see obs::Span, which
  /// is the intended RAII entry point). By convention only processor 0
  /// emits spans; no-ops without a sink.
  void span_begin(std::string_view name);
  void span_end();

  // --- awaiters -----------------------------------------------------------

  template <typename Fill, typename Place>
  struct WindowAwaiter {
    Proc& proc;
    Cycle lead;
    std::size_t beats;
    Cycle trail;
    bool place_on_resume;
    [[no_unique_address]] Fill fill;
    [[no_unique_address]] Place place;

    bool await_ready() const noexcept { return lead + beats + trail == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      PlaceFn place_fn = nullptr;
      if constexpr (!std::is_same_v<Place, NoFn>) {
        place_fn = [](void* ctx, std::size_t j0, std::span<const Beat> done,
                      std::span<ReadResult> got) {
          auto* aw = static_cast<WindowAwaiter*>(ctx);
          for (std::size_t i = 0; i < done.size(); ++i) {
            if (done[i].read != kNoChannel) {
              aw->place(j0 + i, std::move(got[i]));
            }
          }
        };
        if (place_on_resume) place_fn = nullptr;
      }
      FillFn fill_fn = nullptr;
      if constexpr (!std::is_same_v<Fill, NoFn>) {
        fill_fn = [](void* ctx, std::size_t j0, std::span<Beat> out) {
          auto* aw = static_cast<WindowAwaiter*>(ctx);
          // Stored field by field: a whole-Beat copy of one assembled on
          // the stack stalls on store forwarding, a cost paid per beat.
          for (std::size_t i = 0; i < out.size(); ++i) {
            const Beat b = aw->fill(j0 + i);
            out[i].msg = b.msg;
            out[i].write = b.write;
            out[i].read = b.read;
          }
        };
      }
      proc.open_window(h, lead, beats, trail, fill_fn, place_fn, this);
    }
    void await_resume() {
      if constexpr (!std::is_same_v<Place, NoFn>) {
        if (place_on_resume) place(std::size_t{0}, proc.take_read());
      }
    }
  };

  struct CycleAwaiter {
    Proc& proc;
    Cycle idle;   ///< cycles slept before the channel action
    Cycle trail;  ///< cycles slept after it
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    ReadResult await_resume() const noexcept;
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
  friend void* detail::program_frame_allocate(std::size_t bytes, Proc& self);

  Proc(Network& net, ProcId id) : net_(&net), id_(id) {}
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  // Sets the done flag in the network's ProcTable (defined in proc.cpp,
  // where Network is complete).
  void mark_done();

  // Make `b`, or `write` and `read`, this processor's channel intent,
  // validating its channels. load_beat returns whether `b` reads (and
  // clears the last read, as a cycle that reads nothing yields nullopt).
  bool load_beat(Beat b);
  ReadResult take_read();  // the last read, moved out
  void set_intent(std::optional<WriteOp>& write, ChannelId read);
  // Rejects windows longer than the engine's 32-bit beat cursor.
  void require_beats(std::size_t beats) const;
  // WindowAwaiter::await_suspend: hands the window to the engine.
  void open_window(std::coroutine_handle<> h, Cycle lead, std::size_t beats,
                   Cycle trail, FillFn fill, PlaceFn place, void* ctx);

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
