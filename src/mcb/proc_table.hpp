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
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/message.hpp"
#include "mcb/proc.hpp"
#include "mcb/types.hpp"

namespace mcb {

/// Per-processor state, one array element per processor, indexed by ProcId.
/// Owned by Network.
struct ProcTable {
  /// The step awaiter the processor is suspended on (fn null: none). Its
  /// step runs in place of resuming the program until it returns false.
  struct Step {
    Proc::StepFn fn = nullptr;
    void* ctx = nullptr;
  };
  std::vector<Step> step;
  /// The processor's program: its only coroutine, which the engine resumes
  /// when an action ends, and whose exception it retrieves in O(1) on
  /// completion.
  std::vector<ProcMain::handle_type> program;
  /// Cycle at which the processor is next due.
  std::vector<Cycle> wake_cycle;
  /// Program completed, as seen when the resume that finished it returned
  /// (one byte per flag, not a packed vector<bool>).
  std::vector<std::uint8_t> done;
  /// The window in flight (a Proc::window of several beats, or one beat
  /// with a trail or a place), split by how often the drain reads it. pos:
  /// when the processor is next due, beat j - 1 of n has just applied (0:
  /// no window — the processor resumes when next due); the window opens
  /// with j = 1, beat 0 loaded, on both engines. window: the callbacks
  /// (ctx is the awaiter), the idle cycles after the last beat and the
  /// block lent to the window (kNoBlock: none). place is null, trail 0 and
  /// block kNoBlock whenever no window is open, so a one-beat action
  /// without a trail or a place (a cycle_after, with or without a lead)
  /// touches neither.
  struct Pos {
    std::uint32_t j = 0;
    std::uint32_t n = 0;
  };
  std::vector<Pos> pos;
  static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};
  struct Window {
    Proc::FillFn fill = nullptr;
    Proc::PlaceFn place = nullptr;
    void* ctx = nullptr;
    Cycle trail = 0;
    std::uint32_t block = kNoBlock;
  };
  std::vector<Window> window;

  /// A window of more than kBlock beats acts from a block lent to it after
  /// beat 0 until it ends: the engine fills kBlock beats at a time and
  /// places their reads when the block is used up, so its callbacks run
  /// once per block, not once per cycle. Beat j >= 1 sits in beats[(j - 1)
  /// % kBlock] and its read lands in got[(j - 1) % kBlock]. While every
  /// processor due acts from a block, the event engine's dense
  /// stretches apply beats and land reads here directly, without copying
  /// them through intent and read_result (Network::run_dense_stretch).
  /// Blocks are kept for reuse.
  static constexpr std::size_t kBlock = 32;
  struct Block {
    std::array<Beat, kBlock> beats;
    std::array<Proc::ReadResult, kBlock> got;
  };
  std::vector<Block> blocks;
  std::vector<std::uint32_t> free_blocks;

  std::uint32_t lend_block() {
    if (free_blocks.empty()) {
      blocks.emplace_back();
      return static_cast<std::uint32_t>(blocks.size() - 1);
    }
    const std::uint32_t b = free_blocks.back();
    free_blocks.pop_back();
    return b;
  }

  // Per-cycle channel intents and results. intent[i] is the beat processor
  // i acts on in the cycle before its wake (kNoChannel halves: none).
  std::vector<Beat> intent;
  std::vector<std::uint8_t> pending_read_all;
  std::vector<Proc::ReadResult> read_result;
  std::vector<std::vector<Proc::ReadResult>> read_all_results;

  /// Max storage noted via Proc::note_aux, per processor.
  std::vector<std::size_t> peak_aux_words;

  void resize(std::size_t p) {
    step.assign(p, Step{});
    program.resize(p);
    wake_cycle.assign(p, 0);
    done.assign(p, 0);
    pos.assign(p, Pos{});
    window.assign(p, Window{});
    intent.assign(p, Beat{});
    pending_read_all.assign(p, 0);
    read_result.resize(p);
    read_all_results.resize(p);
    peak_aux_words.assign(p, 0);
  }

  /// Returns every column to its post-resize state without shrinking any
  /// allocation (Network::reset). Handles are nulled, not destroyed — the
  /// Network owns the program objects and clears them first.
  void reset() {
    std::fill(step.begin(), step.end(), Step{});
    std::fill(program.begin(), program.end(), ProcMain::handle_type{});
    std::fill(wake_cycle.begin(), wake_cycle.end(), Cycle{0});
    std::fill(done.begin(), done.end(), std::uint8_t{0});
    std::fill(pos.begin(), pos.end(), Pos{});
    std::fill(window.begin(), window.end(), Window{});
    std::fill(intent.begin(), intent.end(), Beat{});
    std::fill(pending_read_all.begin(), pending_read_all.end(),
              std::uint8_t{0});
    for (auto& r : read_result) r.reset();
    for (auto& v : read_all_results) v.clear();
    std::fill(peak_aux_words.begin(), peak_aux_words.end(), std::size_t{0});
    free_blocks.resize(blocks.size());
    std::iota(free_blocks.begin(), free_blocks.end(), std::uint32_t{0});
  }
};

}  // namespace mcb
