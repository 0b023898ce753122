// Struct-of-arrays block holding the hot per-processor simulation state.
//
// The seed implementation kept wake cycle, channel intents, read results and
// the resume handle as members of each heap-allocated Proc, so every engine
// pass chased a unique_ptr per processor. The engines walk processors in id
// order thousands of times per run; moving the per-processor state into flat
// id-indexed arrays owned by the Network turns those walks into linear
// scans of contiguous memory.
//
// Proc itself shrinks to a handle {Network*, ProcId}; all accessors index
// this table through the owning network.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/message.hpp"
#include "mcb/proc.hpp"
#include "mcb/types.hpp"

namespace mcb {

/// Per-processor state, one array element per processor, indexed by ProcId.
/// Owned by Network (declared after the frame arena, so coroutine frames
/// outlive their handles here).
struct ProcTable {
  /// Innermost suspended coroutine; resuming it continues the program.
  std::vector<std::coroutine_handle<>> resume_point;
  /// Top-level program handle, for O(1) exception retrieval on completion.
  std::vector<ProcMain::handle_type> program;
  /// Cycle at which the processor is next due.
  std::vector<Cycle> wake_cycle;
  /// Program completed (one byte per flag, not a packed vector<bool>).
  std::vector<std::uint8_t> done;
  /// Event engine: why the next drain must not resume the processor, as
  /// bits. kIdleLeft: it sleeps out the idle part of a Proc::cycle_after or
  /// burst_after and holds its channel intent for the cycle after the
  /// wake. kBeatsLeft: a burst has beats after the one in flight (or, with
  /// kIdleLeft, after beat 0). The drain makes it active for the next
  /// cycle instead of resuming it.
  std::vector<std::uint8_t> deferred;
  static constexpr std::uint8_t kIdleLeft = 1;
  static constexpr std::uint8_t kBeatsLeft = 2;

  /// Cursor of a Proc::burst_after in flight: the beats not yet loaded and
  /// the read slot of the beat in flight (null when the burst keeps no
  /// reads). Idle (next == end) outside a burst.
  struct Burst {
    const Beat* next = nullptr;
    const Beat* end = nullptr;
    Proc::ReadResult* got = nullptr;
  };
  std::vector<Burst> burst;

  // Per-cycle channel intents and results.
  std::vector<std::optional<WriteOp>> pending_write;
  std::vector<std::optional<ChannelId>> pending_read;
  std::vector<std::uint8_t> pending_read_all;
  std::vector<Proc::ReadResult> read_result;
  std::vector<std::vector<Proc::ReadResult>> read_all_results;

  /// Max storage noted via Proc::note_aux, per processor.
  std::vector<std::size_t> peak_aux_words;

  void resize(std::size_t p) {
    resume_point.resize(p);
    program.resize(p);
    wake_cycle.assign(p, 0);
    done.assign(p, 0);
    deferred.assign(p, 0);
    burst.assign(p, Burst{});
    pending_write.resize(p);
    pending_read.resize(p);
    pending_read_all.assign(p, 0);
    read_result.resize(p);
    read_all_results.resize(p);
    peak_aux_words.assign(p, 0);
  }

  /// Returns every column to its post-resize state without shrinking any
  /// allocation (Network::reset). Handles are nulled, not destroyed — the
  /// Network owns the program objects and clears them first.
  void reset() {
    std::fill(resume_point.begin(), resume_point.end(),
              std::coroutine_handle<>{});
    std::fill(program.begin(), program.end(), ProcMain::handle_type{});
    std::fill(wake_cycle.begin(), wake_cycle.end(), Cycle{0});
    std::fill(done.begin(), done.end(), std::uint8_t{0});
    std::fill(deferred.begin(), deferred.end(), std::uint8_t{0});
    std::fill(burst.begin(), burst.end(), Burst{});
    for (auto& w : pending_write) w.reset();
    for (auto& r : pending_read) r.reset();
    std::fill(pending_read_all.begin(), pending_read_all.end(),
              std::uint8_t{0});
    for (auto& r : read_result) r.reset();
    for (auto& v : read_all_results) v.clear();
    std::fill(peak_aux_words.begin(), peak_aux_words.end(), std::size_t{0});
  }

  /// Makes `b` processor i's channel intent.
  void load_beat(std::size_t i, const Beat& b) {
    if (b.write != kNoChannel) {
      pending_write[i] = WriteOp{b.write, b.msg};
    } else {
      pending_write[i].reset();
    }
    if (b.read != kNoChannel) {
      pending_read[i] = b.read;
    } else {
      pending_read[i].reset();
    }
  }

  /// Ends burst beat j of processor i: keeps its read in got[j] and loads
  /// beat j + 1. Returns whether beats remain after that one.
  bool next_beat(std::size_t i) {
    Burst& b = burst[i];
    if (b.got != nullptr) *b.got++ = std::move(read_result[i]);
    load_beat(i, *b.next++);
    return b.next != b.end;
  }
};

}  // namespace mcb
