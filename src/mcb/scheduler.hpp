// Event queue for the event-driven simulation engine.
//
// The paper's protocols synchronize by counting cycles: at any instant many
// processors are asleep in Proc::skip() waiting for their turn, and the
// rest re-awaken every cycle via channel operations. The scan-the-world
// reference loop pays O(p) per cycle regardless; this scheduler makes each
// suspension cost O(1) amortized and lets the network iterate only over the
// processors that actually participate in the cycle in flight.
//
// The wake queue is a three-tier structure keyed on the wake cycle — a
// hierarchical bucket wheel in the calendar-queue tradition of discrete-event
// simulators:
//
//   * next bucket — processors waking exactly one cycle ahead (every channel
//     op, and skip(1)). This is the hot path: pushes happen in processor-id
//     order during the drain of the previous cycle, so the bucket is always
//     id-sorted by construction and push/pop are O(1). A binary heap here
//     measurably dominates simulation time (an O(log p) sift per resume,
//     tens of millions of times per run).
//   * wheel       — kWheelSize buckets indexed by wake & kWheelMask, holding
//     wakes within the next kWheelSize cycles. Registration is one push_back
//     into an array slot — O(1), no node allocation, no tree rebalancing —
//     and bucket vectors are recycled drain over drain (clear keeps
//     capacity). Slot residency is unambiguous: every pending wheel wake
//     lies in (now, now + kWheelSize], a window of exactly kWheelSize
//     cycles, so distinct pending wakes never share a slot and a drained
//     bucket contains only entries due that very cycle.
//   * spill heap  — wakes beyond the wheel horizon, in a binary min-heap on
//     the wake cycle. Only very long skips land here (O(log #spilled) each);
//     entries stay in the heap until their cycle comes due — no migration
//     pass when the horizon advances past them.
//
// A drain that merged wheel or spill entries is re-sorted by processor id,
// restoring the reference engine's deterministic resume order (the previous
// ordered-map far queue needed the same sort; see docs/ENGINE.md).
//
// Two more lists let the run loop touch only what changed:
//
//   * active list — processors that suspended with a channel intent
//     (write / read / multi-read) for the cycle in flight. The write, read
//     and trace steps iterate this list only.
//   * dirty list  — channels written in the cycle in flight, so clearing
//     slots is O(writes), not O(k).
//
// Invariants (see docs/ENGINE.md): every live suspended processor sits in
// exactly one tier; the active list holds exactly the processors whose
// wake cycle is now+1 *and* that registered a channel intent; a cycle whose
// drain would be empty is observationally silent and may be skipped
// wholesale (idle-cycle fast-forward).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "mcb/types.hpp"

namespace mcb {

class Scheduler {
 public:
  Scheduler(std::size_t p, std::size_t k);

  /// Empties every tier plus the active and dirty lists, keeping all vector
  /// capacities, so a long-lived network (Network::reset) re-runs without
  /// re-growing the queue structures.
  void reset();

  // --- wake queue ---------------------------------------------------------

  /// Registers processor `id` (suspended at cycle `now`) to be resumed at
  /// `wake`, with wake >= now + 1. A processor is scheduled at most once at
  /// a time (it is suspended at a single awaiter). Entries are bare
  /// processor ids — all per-processor state lives in the Network's
  /// ProcTable, so the queue tiers are flat id arrays.
  void schedule_wake(ProcId id, Cycle wake, Cycle now) {
    ++pending_;
    const Cycle ahead = wake - now;
    if (ahead == 1) {
      next_bucket_.push_back(id);
    } else if (ahead <= kWheelSize) {
      wheel_[wake & kWheelMask].push_back(id);
      ++wheel_count_;
    } else {
      push_spill(id, wake);
    }
  }

  bool queue_empty() const { return pending_ == 0; }

  /// Earliest pending wake cycle given the current cycle `now`. Requires a
  /// non-empty queue. O(1) on the hot path (next bucket occupied); at most
  /// kWheelSize slot probes otherwise — only on idle-cycle fast-forwards,
  /// which are rare by definition.
  Cycle next_wake(Cycle now) const;

  /// Collects every processor due at `now` in processor-id order. The
  /// returned entries are valid until the next drain; processors
  /// re-scheduling themselves while the caller iterates land in fresh
  /// buckets and are never part of the same drain.
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
  static constexpr std::size_t kWheelSize = 64;
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  struct SpillEntry {
    Cycle wake;
    ProcId id;
  };

  void push_spill(ProcId id, Cycle wake);

  std::vector<ProcId> next_bucket_;  ///< wakes at (drain cycle)+1
  std::array<std::vector<ProcId>, kWheelSize> wheel_;
  std::size_t wheel_count_ = 0;     ///< entries across all wheel buckets
  std::vector<SpillEntry> spill_;   ///< min-heap on wake, beyond the wheel
  std::size_t pending_ = 0;         ///< entries across all three tiers
  std::vector<ProcId> drain_entries_;  ///< scratch, swapped with next bucket
  std::vector<ProcId> active_;
  std::vector<ChannelId> dirty_;
};

}  // namespace mcb
