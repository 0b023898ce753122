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
#include "util/arena.hpp"

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
  /// channel-slot arrays, scheduler tiers and — crucially for the serving
  /// layer — the warmed coroutine-frame arena all survive, so repeated
  /// runs skip both the setup allocations and most slab acquisitions
  /// (RunStats::frame_reuses shows the free-list hits). Model-observable
  /// state is cleared completely: a run after reset() is byte-identical —
  /// stats, traces, conformance streams — to the same run on a fresh
  /// network (tests/reset_test.cpp holds both engines to that). Safe after
  /// a failed run too: suspended programs are destroyed and their frames
  /// recycled. Must not be called from inside a processor program.
  void reset();

  /// The frame arena's counters, monotonic over the network's life: the
  /// program frames installed so far count before run() starts.
  /// RunStats::frame_* report one run's share of them.
  const util::ArenaStats& arena_stats() const { return arena_.stats(); }

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
  friend void* detail::program_frame_allocate(std::size_t bytes, Proc& self);

  // The suspension hook of every awaiter: processor id opens a window of
  // `beats` beats (beat 0, if any, already loaded) after `lead` idle
  // cycles, with callbacks and trail `w`. A window of no beats is a sleep
  // of lead + w.trail cycles.
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
    const Beat& b = tab_.intent[id];
    if ((b.write != kNoChannel && b.write >= cfg_.k) ||
        (b.read != kNoChannel && b.read >= cfg_.k)) {
      bad_intent(id);
    }
  }
  void bad_intent(ProcId id) const;

  void resume_proc(ProcId id);
  void run_event_loop();
  void run_reference_loop();
  [[noreturn]] void throw_max_cycles() const;
  void finish_phase();

  // Shared cycle steps over the SoA state (used by both engines).
  void apply_read(ProcId i);
  void emit_event(ProcId i);  // requires sink_ != nullptr
  void clear_intents(ProcId i);

  SimConfig cfg_;
  TraceSink* sink_;

  // Frame arena for this network's coroutine frames: program frames at
  // install (detail::program_frame_allocate), Task frames while it is
  // installed thread_local for the duration of run(). Declared before
  // programs_ so it is destroyed after them: destroying a program (e.g. a
  // suspended one after a CollisionError aborted the run) frees its frame
  // and its in-scope Task frames back into the arena.
  util::FrameArena arena_;

  ProcTable tab_;
  std::vector<std::unique_ptr<Proc>> procs_;
  // Installed programs in install order; keeps their frames alive.
  // Processor i is installed iff tab_.program[i] is non-null.
  std::vector<ProcMain> programs_;

  // Channel state for the cycle in flight, struct-of-arrays: who wrote, and what.
  std::vector<std::uint8_t> slot_written_;
  std::vector<ProcId> slot_writer_;
  std::vector<Message> slot_msg_;

  Scheduler sched_;
  Engine mode_ = Engine::kEventDriven;

  Cycle now_ = 0;
  std::size_t alive_ = 0;
  bool ran_ = false;

  RunStats stats_;
  std::string phase_name_;
  Cycle phase_start_cycle_ = 0;
  std::uint64_t phase_start_messages_ = 0;

  // Arena counters at the start of the current run, so the per-run telemetry
  // reports this run's deltas even on a reset network whose arena carries
  // warm free lists from earlier runs. Zero for a fresh network, keeping
  // first-run telemetry unchanged.
  util::ArenaStats arena_base_;
};

}  // namespace mcb
