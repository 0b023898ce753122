// The MCB(p, k) network simulator.
//
// Faithful to Section 2 of the paper: computation proceeds in globally
// synchronous cycles; during each cycle every processor may write one
// channel and read one channel, then perform arbitrary local computation.
// Channels are memoryless slots of width one cycle: a message is observed
// only by processors reading that channel in that same cycle; a read of a
// channel nobody wrote yields detectable silence. Two writers on one channel
// in one cycle is a collision and aborts the run with CollisionError.
//
// Complexity accounting is exact: `cycles` counts synchronous rounds until
// every program has completed, `messages` counts channel writes.
//
// Two engines implement these semantics (SimConfig::engine):
//
//   * kEventDriven (default) — a wake-queue scheduler (mcb/scheduler.hpp).
//     Suspending processors register their wake cycle and channel intents;
//     each cycle touches only the participating processors and the written
//     channels, and runs of cycles in which nothing observable happens are
//     fast-forwarded in O(1). Simulation cost is O(events), not O(p·cycles),
//     and every suspension is O(1) whatever its sleep length.
//
//   * kReference — the original scan-the-world loop: three O(p) passes and
//     an O(k) slot sweep per cycle. It is the executable specification the
//     event engine is tested against (tests/scheduler_equivalence_test.cpp
//     asserts bit-identical statistics).
//
// Both engines walk the same struct-of-arrays state: per-processor hot state
// lives in a ProcTable (mcb/proc_table.hpp) and channel slots in flat
// per-channel arrays, both owned by this class. Setup is O(p): construction
// sizes those arrays once, and install() is O(1) per processor because a
// processor counts as installed exactly when its ProcTable program handle
// is set. See docs/ENGINE.md for the equivalence argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/errors.hpp"
#include "mcb/proc.hpp"
#include "mcb/proc_table.hpp"
#include "mcb/scheduler.hpp"
#include "mcb/sim_config.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"

namespace mcb {

class Network {
 public:
  /// Creates the network with all p processor contexts; programs are
  /// attached afterwards with install(). `sink` may be nullptr.
  explicit Network(SimConfig cfg, TraceSink* sink = nullptr);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const SimConfig& config() const { return cfg_; }

  /// Processor context i, used to create its program:
  ///   net.install(i, my_protocol(net.proc(i), args...));
  Proc& proc(ProcId i);

  /// Attaches a program to processor i, in O(1): installing p programs is
  /// O(p). Every processor must have exactly one program installed before
  /// run(); a second install on the same processor throws.
  void install(ProcId i, ProcMain program);

  /// Runs to quiescence (all programs complete) and returns the statistics.
  /// Throws CollisionError / ProtocolError on model violations, and
  /// propagates any exception escaping a processor program. Single-shot per
  /// install round: reset() re-arms the network for another one.
  RunStats run();

  /// Returns the network to its pre-install state so a new set of programs
  /// can be installed and run on the same allocation: processor contexts,
  /// channel-slot arrays, scheduler tiers, window blocks and the
  /// program-frame region all survive, so repeated runs skip the setup
  /// allocations. Model-observable state is cleared completely: a run
  /// after reset() is byte-identical — stats, traces, conformance streams —
  /// to the same run on a fresh network (tests/reset_test.cpp holds both
  /// engines to that). Safe after a failed run too: suspended programs are
  /// destroyed. Must not be called from inside a processor program.
  void reset();

  /// Completed cycles (valid during a run; queried by Proc::now()).
  Cycle now() const { return now_; }

  /// Starts a named accounting phase at the current cycle. The phase is
  /// also a span: the mark begins it on SimConfig::span_sink, and the next
  /// mark, the end of run(), reset() or the destructor ends it.
  void mark_phase(std::string name);

  /// Span marks forwarded to SimConfig::span_sink (obs::Span, and the phase
  /// marks above), stamped with the current cycle and network-wide message
  /// count. No-ops (one branch) without a sink.
  void span_begin(std::string_view name);
  void span_end();

 private:
  friend class Proc;
  friend struct Proc::CycleAwaiter;
  friend struct Proc::MultiReadAwaiter;
  friend void* detail::program_frame(Proc& self, std::size_t bytes);

  // The suspension hook of every awaiter: processor id opens a window of
  // `beats` beats (beat 0, if any, already loaded) after `lead` idle
  // cycles, with callbacks and trail `w`. A window of no beats is a sleep
  // of lead + w.trail cycles. The processor is filed once, due in the
  // cycle after beat 0 applies (or at the end of the sleep).
  void on_window(ProcId id, Cycle lead, std::size_t beats,
                 const ProcTable::Window& w);
  // Processor id is due inside its window with beat j - 1 just applied:
  // hands that beat's read to place, then loads the next beat and returns
  // true, or closes the window and returns false.
  bool next_beat(ProcId id);
  bool close_window(ProcId id);  // returns false, for next_beat
  // Throws std::invalid_argument when processor id's intent names a
  // channel >= k.
  void check_intent(ProcId id) const {
    if (bad_channels(tab_.intent[id])) bad_intent(id);
  }
  bool bad_channels(const Beat& b) const {
    return (b.write != kNoChannel && b.write >= cfg_.k) ||
           (b.read != kNoChannel && b.read >= cfg_.k);
  }
  void bad_intent(ProcId id) const;

  // Carves a program frame of `bytes` from the region.
  void* program_frame(std::size_t bytes);

  void resume_proc(ProcId id);
  void run_event_loop();
  // The event engine's dense fast-forward: runs the cycles from now_ on
  // straight from the window blocks of the processors `due` at the end of
  // the cycle while none joins or leaves, and returns whether it ran any
  // (docs/ENGINE.md).
  bool run_dense_stretch(const std::vector<ProcId>& due);
  void run_reference_loop();
  [[noreturn]] void throw_max_cycles() const;
  void finish_phase();

  // Shared cycle steps over the SoA state (used by both engines): the
  // write of beat b by processor id (collision check and message stats),
  // a read of channel c into `out` and a trace event; and the event
  // engine's end of a cycle's writes, clear_slots.
  void write_beat(ProcId id, const Beat& b) {
    const ChannelId c = b.write;
    if (c == kNoChannel) return;
    if (slot_written_[c] != 0) collide(c, id);
    slot_written_[c] = 1;
    slot_writer_[c] = id;
    slot_msg_[c] = b.msg;
    sched_.mark_dirty(c);
    ++stats_.messages;
    ++stats_.messages_per_proc[id];
    ++stats_.messages_per_channel[c];
  }
  [[noreturn]] void collide(ChannelId c, ProcId id) const;
  void read_channel(ChannelId c, Proc::ReadResult& out) const {
    if (slot_written_[c] != 0) {
      out = slot_msg_[c];
    } else {
      out.reset();
    }
  }
  void apply_read(ProcId i);
  // Requires sink_ != nullptr.
  void emit_event(ProcId i, const Beat& b, const Proc::ReadResult& got);
  void clear_slots();
  void clear_intents(ProcId i);

  SimConfig cfg_;
  TraceSink* sink_;

  // The program-frame region: programs' frames, carved in creation order
  // from chunks that reset() rewinds once it has destroyed the programs,
  // so a network that installs p programs per run allocates their frames
  // once. Chunks stay below the allocator's mmap threshold, so the next
  // network reuses their memory rather than faulting in fresh pages.
  // Declared before programs_, whose frames it holds.
  static constexpr std::size_t kFrameChunkBytes = 64 * 1024;
  struct FrameChunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t bytes;
  };
  std::vector<FrameChunk> frame_chunks_;
  std::size_t frame_chunk_ = 0;  ///< the chunk being carved
  std::size_t frame_used_ = 0;   ///< its bytes carved

  ProcTable tab_;
  // The p processor contexts, by value in one allocation that never
  // moves: Proc is neither copyable nor movable, so each is built in place,
  // and being trivially destructible it needs no destructor call.
  struct ProcArray {
    std::size_t p;
    void operator()(Proc* a) const { std::allocator<Proc>().deallocate(a, p); }
  };
  std::unique_ptr<Proc[], ProcArray> procs_;
  // Installed programs in install order; keeps their frames alive.
  // Processor i is installed iff tab_.program[i] is non-null.
  std::vector<ProcMain> programs_;

  // Channel state for the cycle in flight, struct-of-arrays: who wrote, and what.
  std::vector<std::uint8_t> slot_written_;
  std::vector<ProcId> slot_writer_;
  std::vector<Message> slot_msg_;

  Scheduler sched_;
  Engine mode_ = Engine::kEventDriven;
  // A dense stretch's processors, in id order: beats[c] and got[c] are
  // the beat and read slot of its c-th cycle.
  struct Lane {
    ProcId id;
    const Beat* beats;
    Proc::ReadResult* got;
  };
  std::vector<Lane> lanes_;

  Cycle now_ = 0;
  std::size_t alive_ = 0;
  bool ran_ = false;

  RunStats stats_;
  std::string phase_name_;
  Cycle phase_start_cycle_ = 0;
  std::uint64_t phase_start_messages_ = 0;

};

}  // namespace mcb
