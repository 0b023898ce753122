// Event queue for the event-driven simulation engine.
//
// The paper's protocols synchronize by counting cycles: at any instant many
// processors sleep out the idle part of a Proc::window waiting for their
// turn, and the rest act every cycle. The scan-the-world
// reference loop pays O(p) per cycle regardless; this scheduler makes each
// suspension cost O(1) and lets the network iterate only over the
// processors that actually participate in the cycle in flight.
//
// The wake queue is a hierarchical timing wheel (Varghese & Lauck) keyed on
// the wake cycle, plus a fast lane for the next cycle:
//
//   * next bucket — processors waking exactly one cycle ahead (every beat
//     of a window, and every window whose lead just ended). This is the
//     hot path: pushes happen in processor-id order during the drain of the previous cycle, so the bucket is always
//     id-sorted by construction and push/pop are O(1). It stays a plain
//     vector outside the wheel: tens of millions of resumes per run take
//     this path, and a drain of it alone needs no sort check.
//   * level 0    — kSlots slots indexed by wake & kSlotMask, holding every
//     other wake within kSlots cycles of its registration. Every level-0
//     wake lies in (cursor, cursor + kSlots], a window of exactly kSlots
//     cycles, so a slot never mixes wake cycles and a drained slot holds
//     only entries due that very cycle.
//   * levels 1..kLevels-1 — longer sleeps. A level-j slot spans kSlots^j
//     cycles: a wake w sits at the level of the highest base-kSlots digit in
//     which w differs from the cursor, in the slot named by w's digit there.
//     When the drain enters a new level-j block, that block's slot
//     cascades: its entries are placed again relative to the new cursor, at
//     a strictly lower level (or drained if due). A wake therefore moves at
//     most kLevels-1 times, O(1) each, and kLevels levels cover every
//     Cycle — there is no overflow structure.
//
// Slots are intrusive singly linked lists threaded through per-processor
// arrays (a processor sits in at most one slot at a time), appended at the
// tail. The wheel therefore allocates nothing after construction, its
// memory is O(p + kLevels·kSlots) whatever the schedule, and list order is
// registration order: a slot filled during one id-ordered drain stays
// id-sorted. A drain that merged slots is checked with is_sorted and
// re-sorted only if needed, restoring the reference engine's deterministic
// resume order (see docs/ENGINE.md). Large unsorted drains (at least p/256
// ids, e.g. every reader of a broadcast that slept out an idle stretch
// registered across many cycles) are rebuilt from a p-bit bitmap in
// O(n + p/64) instead of sorted.
//
// Each level keeps a 64-bit occupancy mask, so next_wake() is a rotate and
// a std::countr_zero per level instead of a probe over slots.
//
// Two more lists let the run loop touch only what changed:
//
//   * active list — processors whose channel intent (write / read /
//     multi-read) applies in the cycle in flight. The write, read and trace
//     steps iterate this list only.
//   * dirty list  — channels written in the cycle in flight, so clearing
//     slots is O(writes), not O(k).
//
// Invariants (see docs/ENGINE.md): every live suspended processor sits in
// exactly one tier; the active list holds exactly the processors whose
// wake cycle is now+1 *and* that hold a channel intent, so it is a subset
// of the next bucket, and the two are equal when their sizes are; a cycle
// whose drain would be empty is observationally silent and may be skipped
// wholesale (idle-cycle fast-forward). When the next bucket equals the
// active list and the wheel holds no wake for a few cycles, the drains in
// between hold the same processors again and again, and the network may
// skip them as a dense stretch without touching the queue: the cursor
// then lags the network's cycle, as after an idle jump, with no wake
// pending before the next drain.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcb/types.hpp"

namespace mcb {

class Scheduler {
 public:
  /// Sized for processor ids 0..p-1 and channels 0..k-1.
  Scheduler(std::size_t p, std::size_t k);

  /// Empties every tier plus the active and dirty lists and rewinds the
  /// cursor to cycle 0, keeping all vector capacities, so a long-lived
  /// network (Network::reset) re-runs without re-growing the queue.
  void reset();

  // --- wake queue ---------------------------------------------------------
  //
  // The queue's cursor is the cycle of the latest drain (0 before any).
  // `now` arguments name that cursor: processors register while the drain
  // at `now` is iterated, and the caller drains next at a cycle no later
  // than next_wake(now).

  /// Registers processor `id` (suspended at cycle `now`) to be resumed at
  /// `wake`, with wake >= now + 1. A processor is scheduled at most once at
  /// a time (it is suspended at a single awaiter), and registrations at one
  /// cycle arrive in ascending id order (they come from an id-ordered
  /// drain), which keeps the next bucket sorted without a sort.
  void schedule_wake(ProcId id, Cycle wake, Cycle now) {
    ++pending_;
    if (wake - now == 1) {
      next_bucket_.push_back(id);
    } else {
      place(id, wake, now);
    }
  }

  bool queue_empty() const { return pending_ == 0; }

  /// Earliest pending wake cycle. Requires a non-empty queue. O(1) when the
  /// next bucket is occupied; otherwise one mask read per level.
  Cycle next_wake(Cycle now) const;

  /// Earliest wake filed in the wheel, the next bucket aside (the largest
  /// Cycle when there is none). One mask read per level.
  Cycle wheel_next_wake(Cycle now) const;

  /// Processors in the next bucket. Every processor on the active list is
  /// in it (it acts in the cycle before its wake, one cycle ahead), so a
  /// next bucket no larger than the active list holds exactly that list:
  /// the drain ending the cycle in flight holds no one else.
  std::size_t next_bucket_size() const { return next_bucket_.size(); }

  /// Collects every processor due at `now` in processor-id order, where
  /// the latest drain was earlier than `now` and no pending wake is. The
  /// returned entries are valid until the next drain; processors
  /// re-scheduling themselves while the caller iterates land in other
  /// slots and are never part of the same drain.
  const std::vector<ProcId>& drain_due(Cycle now);

  // --- active list (participants of the cycle in flight) ------------------

  void add_active(ProcId id) { active_.push_back(id); }
  const std::vector<ProcId>& active() const { return active_; }
  void clear_active() { active_.clear(); }

  // --- dirty channels -----------------------------------------------------

  /// Records that channel `c` was written this cycle. The collision check
  /// guarantees at most one write per channel per cycle, so entries are
  /// unique without deduplication.
  void mark_dirty(ChannelId c) { dirty_.push_back(c); }
  const std::vector<ChannelId>& dirty() const { return dirty_; }
  void clear_dirty() { dirty_.clear(); }

 private:
  static constexpr unsigned kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr Cycle kSlotMask = kSlots - 1;
  /// Enough base-kSlots digits for any Cycle.
  static constexpr std::size_t kLevels = (64 + kSlotBits - 1) / kSlotBits;
  static constexpr ProcId kNil = ~ProcId{0};

  struct Slot {
    ProcId head = kNil;
    ProcId tail = kNil;
  };

  /// Puts the unsorted drain in id order.
  void sort_drain();
  /// Files a wheel wake (wake - now >= 2) relative to cursor `now`.
  void place(ProcId id, Cycle wake, Cycle now);
  void append(std::size_t level, std::size_t slot, ProcId id);

  std::vector<ProcId> next_bucket_;  ///< wakes at (drain cycle)+1
  std::array<std::array<Slot, kSlots>, kLevels> wheel_{};
  std::array<std::uint64_t, kLevels> occupied_{};  ///< bit s: slot s in use
  /// Earliest wake filed in each slot of levels >= 1 (a level-0 slot holds
  /// a single wake cycle). Slots empty as a whole, so the minimum is exact.
  std::array<std::array<Cycle, kSlots>, kLevels> slot_min_{};
  std::vector<ProcId> link_;  ///< per processor: successor in its slot
  std::vector<Cycle> wake_;   ///< per processor: wake of a wheel resident
  Cycle cursor_ = 0;          ///< cycle of the latest drain
  std::size_t pending_ = 0;   ///< entries across all tiers
  std::vector<ProcId> drain_entries_;  ///< scratch, swapped with next bucket
  std::vector<std::uint64_t> drain_bits_;  ///< p-bit id set, all zero at rest
  std::vector<ProcId> active_;
  std::vector<ChannelId> dirty_;
};

}  // namespace mcb
