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
#include <variant>
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

  /// A step awaiter's step as the engine stores it (see StepAwaiter): run
  /// in place of resuming the processor when its channel action ends, it
  /// opens the next action and returns true, or returns false once the
  /// awaiter is finished and the processor resumes. `ctx` is the awaiter.
  using StepFn = bool (*)(void* ctx);

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
  /// on silence) to `place(j, got)`. fill(0) runs as the processor
  /// suspends; the engine runs the rest, in order of j, each fill(j) before beat j applies and each
  /// place(j) after it completes — for a window of more than
  /// ProcTable::kBlock beats, a block of beats at a time — and all before
  /// the processor resumes. So a fill must not depend on the
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
    return {*this, lead, beats, trail, std::move(fill), std::move(place)};
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

  // --- step awaiters -------------------------------------------------------
  //
  // A sub-protocol (Partial-Sums, a Columnsort, selection's termination)
  // is a state machine held in its awaiter, so it lives in the caller's
  // frame; see StepAwaiter. Its begin() and step() open the processor's
  // actions with act_window() or act_sleep().

  template <typename Derived>
  class StepAwaiter;

  /// window(lead, beats, trail, fill, place), opened from a step awaiter:
  /// beat j is src.fill(j) and its read goes to src.place(j, got); src
  /// must outlive the window. A Src without place keeps no reads but the
  /// last one, which take_read() yields; one without fill has no beats.
  template <typename Src>
  void act_window(Src& src, Cycle lead, std::size_t beats, Cycle trail);

  /// window(cycles), opened from a step awaiter; cycles > 0.
  void act_sleep(Cycle cycles);

  /// The read of the action that just ended (nullopt on silence or when
  /// it read nothing), moved out.
  ReadResult take_read();

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
    [[no_unique_address]] Fill fill;
    [[no_unique_address]] Place place;

    bool await_ready() const noexcept { return lead + beats + trail == 0; }
    void await_suspend(std::coroutine_handle<>) {
      proc.act_window(*this, lead, beats, trail);
    }
    void await_resume() const noexcept {}
  };

  /// The base of a step awaiter: a sub-protocol run as a state machine
  /// in its awaiter, which lives in the awaiting coroutine's frame, not as
  /// a coroutine with a frame of its own. Derived::begin(Proc&) opens its
  /// first channel action with act_window() and returns true, or returns false
  /// when it has nothing to do. Each time the action opened last ends, the
  /// engine calls Derived::step(Proc&) in place of resuming the coroutine:
  /// it opens the next action and returns true, or returns false when the
  /// sub-protocol is over, and then the coroutine resumes with
  /// await_resume() (Derived's, if it yields a result). A step counts as the resume it replaces
  /// (RunStats::proc_resumes). An exception from begin() surfaces in the
  /// coroutine; one from step() aborts run(). A program that runs several
  /// sub-protocols keeps them in one frame slot, a StepSlot.
  template <typename Derived>
  class StepAwaiter {
   public:
    explicit StepAwaiter(Proc& self) : self_(&self) {}
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<>) {
      auto& d = static_cast<Derived&>(*this);
      if (!d.begin(*self_)) return false;
      self_->set_step(
          [](void* ctx) {
            auto& a = *static_cast<Derived*>(ctx);
            return a.step(*a.self_);
          },
          &d);
      return true;
    }
    void await_resume() const noexcept {}

   protected:
    Proc* self_;
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
  friend void* detail::program_frame(Proc& self, std::size_t bytes);

  Proc(Network& net, ProcId id) : net_(&net), id_(id) {}
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  // Make `b`, or `write` and `read`, this processor's channel intent,
  // validating its channels. load_beat clears the last read, as a cycle
  // that reads nothing yields nullopt.
  void load_beat(Beat b);
  void set_intent(std::optional<WriteOp>& write, ChannelId read);
  // Rejects windows longer than the engine's 32-bit beat cursor.
  void require_beats(std::size_t beats) const;
  // The step the engine runs in place of resuming the program.
  void set_step(StepFn step, void* ctx);
  // Hands a window to the engine.
  void open_window(Cycle lead, std::size_t beats, Cycle trail, FillFn fill,
                   PlaceFn place, void* ctx);

  // The engine's window callbacks over a Src with fill(j) and place(j, got)
  // members (a WindowAwaiter's callables, or a step awaiter's methods).
  template <typename Src>
  static void fill_beats(void* ctx, std::size_t j0, std::span<Beat> out) {
    auto* src = static_cast<Src*>(ctx);
    // Stored field by field: a whole-Beat copy of one assembled on the
    // stack stalls on store forwarding, a cost paid per beat.
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Beat b = src->fill(j0 + i);
      out[i].msg = b.msg;
      out[i].write = b.write;
      out[i].read = b.read;
    }
  }
  template <typename Src>
  static void place_reads(void* ctx, std::size_t j0,
                          std::span<const Beat> done,
                          std::span<ReadResult> got) {
    auto* src = static_cast<Src*>(ctx);
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i].read != kNoChannel) src->place(j0 + i, std::move(got[i]));
    }
  }

  // Proc is a thin handle: all hot per-processor state (wake cycle, channel
  // intents, read results, program handle) lives in the Network's ProcTable
  // (mcb/proc_table.hpp), indexed by id_, so the engines scan flat arrays
  // instead of chasing per-processor heap objects.
  Network* net_;
  ProcId id_;
};

template <typename Src>
void Proc::act_window(Src& src, Cycle lead, std::size_t beats, Cycle trail) {
  require_beats(beats);
  FillFn fill = nullptr;
  PlaceFn place = nullptr;
  if constexpr (requires { src.fill(std::size_t{0}); }) {
    if (beats > 0) load_beat(src.fill(std::size_t{0}));
    fill = &fill_beats<Src>;
  }
  if constexpr (requires(ReadResult got) { src.place(std::size_t{0}, got); }) {
    place = &place_reads<Src>;
  }
  open_window(lead, beats, trail, fill, place, &src);
}

/// One frame slot for the step awaiters a program runs one after another:
/// emplace the next, co_await the slot, read the result with get(). GCC 12
/// gives every await site's temporaries a frame slot of their own, for the
/// frame's whole life, and copies an awaiter that is not a plain variable;
/// a program that awaits its sub-protocols through one StepSlot variable
/// holds the largest of them once.
template <typename... Steps>
class StepSlot {
 public:
  template <typename S, typename... Args>
  void emplace(Args&&... args) {
    steps_.template emplace<S>(std::forward<Args>(args)...);
  }
  template <typename S>
  const S& get() const {
    return std::get<S>(steps_);
  }

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    return std::visit(
        [h](auto& s) {
          if constexpr (std::is_same_v<decltype(s), std::monostate&>) {
            return false;
          } else {
            return s.await_suspend(h);
          }
        },
        steps_);
  }
  void await_resume() const noexcept {}

 private:
  std::variant<std::monostate, Steps...> steps_;
};

}  // namespace mcb
