// Event queue for the event-driven simulation engine.
//
// The paper's protocols synchronize by counting cycles: at any instant many
// processors sleep out the idle part of a Proc::window waiting for their
// turn, and the rest act every cycle. The scan-the-world reference loop
// pays O(p) per cycle regardless; this scheduler files each channel action
// once and hands the network, cycle by cycle, only the processors that
// take part in it.
//
// A processor is filed at its wake cycle: the cycle after the one in which
// its held intent applies (the first beat of a window, where the reference
// loop acts on it too), or the end of a sleep or a trail. Before each cycle
// the network collects the processors due at its end, the due set: they
// are exactly the processors the reference loop's scans visit in that
// cycle, and the ones holding a channel intent act in it.
//
// The wake queue is a hierarchical timing wheel (Varghese & Lauck) keyed on
// the wake cycle, plus a fast lane for the next cycle:
//
//   * next bucket — processors waking exactly one cycle ahead (every beat
//     of a window after its first, every action without a lead, a trail of
//     one cycle). Registrations happen in processor-id order during the
//     drain of the previous due set, so the bucket is id-sorted by
//     construction and push/pop are O(1).
//   * level 0 — kNear = 4096 slots indexed by wake & (kNear - 1), holding
//     every other wake within kNear cycles of its registration, so the
//     leads and sleeps of the library's protocols are placed once. Every
//     level-0 wake lies in (cursor, cursor + kNear], a window of exactly
//     kNear cycles, so a slot never mixes wake cycles and a collected slot
//     holds only entries due that very cycle. One 64-bit word per 64 slots
//     and a 64-bit summary of the non-empty words find the earliest with
//     two countr_zero steps.
//   * levels 1..kLevels-1 — longer sleeps, kSlots = 64 slots each. A
//     level-j slot spans kNear·kSlots^(j-1) cycles: a wake w sits at the
//     level of the highest digit (12 bits for level 0, then 6 per level)
//     in which w differs from the cursor, in the slot named by w's digit
//     there. When the cursor enters a new level-j block, that block's slot
//     cascades: its entries are placed again relative to the new cursor,
//     at a strictly lower level (or collected if due). A wake therefore
//     moves at most kLevels-1 times, O(1) each, and kLevels levels cover
//     every Cycle — there is no overflow structure. Each level keeps a
//     64-bit occupancy mask and each slot its earliest wake.
//
// Slots are intrusive singly linked lists threaded through per-processor
// arrays (a processor sits in at most one slot at a time), appended at the
// tail. The wheel therefore allocates nothing after construction, its
// memory is O(p + kNear + kLevels·kSlots) whatever the schedule, and list
// order is registration order: a slot is one run of ascending ids per
// registration cycle. A collect merges those runs with the next bucket in
// natural merge passes (one linear pass for a slot filed in one cycle), so
// the due set comes out in id order, the reference engine's deterministic
// resume order (see docs/ENGINE.md). A large set of many runs (at least
// p/256 ids, e.g. every reader of a broadcast, filed across many cycles)
// is rebuilt from a p-bit bitmap in O(n + p/64) instead.
//
// The dirty list holds the channels written in the cycle in flight, so
// clearing slots is O(writes), not O(k).
//
// Invariants (see docs/ENGINE.md): every live suspended processor sits in
// exactly one tier, or in the due set while it is drained; a cycle whose
// due set would be empty is observationally silent and may be skipped
// wholesale (idle-cycle fast-forward). When every processor in the due set
// acts from a window block and the wheel holds no wake for a few cycles,
// the due sets in between hold the same processors again and again: the
// network may skip them as a dense stretch and file the due set again,
// unchanged, for the cycle after it (refile_due).
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

  /// Empties every tier, the due set and the dirty list and rewinds the
  /// cursor to cycle 0, keeping all vector capacities, so a long-lived
  /// network (Network::reset) re-runs without re-growing the queue.
  void reset();

  // --- wake queue ---------------------------------------------------------
  //
  // The queue's cursor is the cycle of the latest collected due set (0
  // before any). `now` arguments name that cursor: processors register
  // while the due set at `now` is drained, and the caller collects next at
  // a cycle no later than next_wake(now).

  /// Registers processor `id` (suspended at cycle `now`) to be due at
  /// `wake`, with wake >= now + 1. A processor is scheduled at most once at
  /// a time (it is suspended at a single awaiter), and registrations at one
  /// cycle arrive in ascending id order (they come from an id-ordered
  /// drain), which keeps the next bucket sorted without a sort.
  void schedule_wake(ProcId id, Cycle wake, Cycle now) {
    if (wake - now == 1) {
      next_bucket_.push_back(id);
    } else {
      place(id, wake, now);
    }
  }

  /// Earliest pending wake: now + 1 when the next bucket is occupied,
  /// otherwise the wheel's. The largest Cycle when nothing is pending.
  Cycle next_wake(Cycle now) const {
    return next_bucket_.empty() ? wheel_next_wake() : now + 1;
  }

  /// Earliest wake filed in the wheel, the next bucket aside (the largest
  /// Cycle when there is none). One summary and one word read on level 0,
  /// one mask read per level above.
  Cycle wheel_next_wake() const;

  /// Moves the cursor to `t` and collects every processor due at `t` in
  /// processor-id order: the next bucket, which the caller files for `t`,
  /// merged with the wheel's wakes at `t`. Requires t > cursor and no
  /// wheel wake before `t`. The set is valid until the next collect;
  /// processors re-scheduling themselves while the caller drains it land
  /// in the next bucket or the wheel, never in the set itself.
  const std::vector<ProcId>& collect(Cycle t);

  /// Files the due set again, unchanged, for the next collect: a dense
  /// stretch skips the drains that would have re-queued its processors
  /// one cycle ahead. Requires an empty next bucket.
  void refile_due() { due_.swap(next_bucket_); }

  // --- dirty channels -----------------------------------------------------

  /// Records that channel `c` was written this cycle. The collision check
  /// guarantees at most one write per channel per cycle, so entries are
  /// unique without deduplication.
  void mark_dirty(ChannelId c) { dirty_.push_back(c); }
  const std::vector<ChannelId>& dirty() const { return dirty_; }
  void clear_dirty() { dirty_.clear(); }

 private:
  static constexpr unsigned kNearBits = 12;
  static constexpr std::size_t kNear = std::size_t{1} << kNearBits;
  static constexpr Cycle kNearMask = kNear - 1;
  static constexpr unsigned kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr Cycle kSlotMask = kSlots - 1;
  /// Level 0 plus enough 6-bit digits above it for any Cycle.
  static constexpr std::size_t kLevels =
      1 + (64 - kNearBits + kSlotBits - 1) / kSlotBits;
  static constexpr ProcId kNil = ~ProcId{0};

  /// A slot's list; meaningful only while its occupancy bit is set.
  struct Slot {
    ProcId head = kNil;
    ProcId tail = kNil;
  };

  /// Files a wheel wake (wake - now >= 2) relative to cursor `now`.
  void place(ProcId id, Cycle wake, Cycle now);
  /// Appends id to slot s, which holds a list iff `occupied`.
  void append(Slot& s, bool occupied, ProcId id);
  /// Puts the due set, a sequence of ascending runs, in id order.
  void order_due();

  std::vector<ProcId> next_bucket_;  ///< wakes at cursor + 1
  std::vector<ProcId> due_;          ///< the collected set, id-sorted
  std::array<Slot, kNear> near_{};   ///< level 0
  std::array<std::uint64_t, kNear / 64> near_bits_{};  ///< slot occupancy
  std::uint64_t near_words_ = 0;  ///< bit w: near_bits_[w] != 0
  /// Levels 1..kLevels-1, at index level - 1.
  std::array<std::array<Slot, kSlots>, kLevels - 1> far_{};
  std::array<std::uint64_t, kLevels - 1> far_bits_{};  ///< slot occupancy
  /// Earliest wake filed in each far slot. Slots empty as a whole, so the
  /// minimum is exact.
  std::array<std::array<Cycle, kSlots>, kLevels - 1> far_min_{};
  std::vector<ProcId> link_;  ///< per processor: successor in its slot
  std::vector<Cycle> wake_;   ///< per processor: wake of a far resident
  Cycle cursor_ = 0;          ///< cycle of the latest collect
  std::vector<ProcId> spare_;  ///< scratch for merge passes
  std::vector<std::uint64_t> due_bits_;  ///< p-bit id set, all zero at rest
  std::vector<ChannelId> dirty_;
};

}  // namespace mcb
