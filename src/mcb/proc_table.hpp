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
  /// Event engine: the processor sleeps out the idle part of a
  /// Proc::cycle_after and holds its channel intent for the cycle after the
  /// wake; the drain makes it active for that cycle instead of resuming it.
  std::vector<std::uint8_t> deferred;

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
    for (auto& w : pending_write) w.reset();
    for (auto& r : pending_read) r.reset();
    std::fill(pending_read_all.begin(), pending_read_all.end(),
              std::uint8_t{0});
    for (auto& r : read_result) r.reset();
    for (auto& v : read_all_results) v.clear();
    std::fill(peak_aux_words.begin(), peak_aux_words.end(), std::size_t{0});
  }
};

}  // namespace mcb
