#include "mcb/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.hpp"

namespace mcb {

Scheduler::Scheduler(std::size_t p, std::size_t k)
    : link_(p, kNil), wake_(p, 0), drain_bits_((p + 63) / 64, 0) {
  next_bucket_.reserve(p);
  drain_entries_.reserve(p);
  active_.reserve(p);
  dirty_.reserve(k);
}

void Scheduler::reset() {
  next_bucket_.clear();
  wheel_ = {};
  occupied_ = {};
  cursor_ = 0;
  pending_ = 0;
  drain_entries_.clear();
  active_.clear();
  dirty_.clear();
}

void Scheduler::append(std::size_t level, std::size_t slot, ProcId id) {
  Slot& s = wheel_[level][slot];
  link_[id] = kNil;
  if (s.head == kNil) {
    s.head = id;
  } else {
    link_[s.tail] = id;
  }
  s.tail = id;
  occupied_[level] |= std::uint64_t{1} << slot;
}

void Scheduler::place(ProcId id, Cycle wake, Cycle now) {
  wake_[id] = wake;
  if (wake - now <= kSlots) {
    append(0, wake & kSlotMask, id);
    return;
  }
  // The highest base-kSlots digit in which wake differs from the cursor;
  // wake - now > kSlots puts it at level >= 1, and wake's digit there is
  // above the cursor's, so the slot lies ahead of the drain.
  const std::size_t level = (std::bit_width(wake ^ now) - 1) / kSlotBits;
  const std::size_t slot = (wake >> (level * kSlotBits)) & kSlotMask;
  Cycle& lo = slot_min_[level][slot];
  lo = (occupied_[level] >> slot & 1) != 0 ? std::min(lo, wake) : wake;
  append(level, slot, id);
}

Cycle Scheduler::next_wake(Cycle now) const {
  if (!next_bucket_.empty()) return now + 1;
  const Cycle best = wheel_next_wake(now);
  MCB_CHECK(best != std::numeric_limits<Cycle>::max(),
            "next_wake on an empty queue");
  return best;
}

Cycle Scheduler::wheel_next_wake(Cycle now) const {
  Cycle best = std::numeric_limits<Cycle>::max();
  // Level 0 is a window (now, now + kSlots]: rotating the mask so that
  // slot now+1 lands on bit 0 turns the earliest wake into a bit count.
  if (occupied_[0] != 0) {
    const int shift = static_cast<int>((now + 1) & kSlotMask);
    best = now + 1 + static_cast<Cycle>(
                          std::countr_zero(std::rotr(occupied_[0], shift)));
  }
  // Above level 0 every level-j wake precedes every level-(j+1) wake, and
  // lower slots precede higher ones, so the first occupied slot of the
  // lowest occupied level holds the earliest of them.
  for (std::size_t level = 1; level < kLevels; ++level) {
    if (occupied_[level] == 0) continue;
    const auto slot =
        static_cast<std::size_t>(std::countr_zero(occupied_[level]));
    best = std::min(best, slot_min_[level][slot]);
    break;
  }
  return best;
}

const std::vector<ProcId>& Scheduler::drain_due(Cycle now) {
  // The next bucket is id-sorted by construction; swapping it out recycles
  // the previous drain's capacity as the fresh next bucket.
  drain_entries_.clear();
  std::swap(drain_entries_, next_bucket_);
  bool merged = false;

  // Level-0 slot now & mask holds exactly the wakes due now (slot-window
  // invariant). Take it before the cascade below refills it with now+kSlots.
  auto take = [&](std::size_t level, std::size_t slot) {
    const ProcId head = wheel_[level][slot].head;
    wheel_[level][slot] = Slot{};
    occupied_[level] &= ~(std::uint64_t{1} << slot);
    return head;
  };
  const std::size_t slot0 = now & kSlotMask;
  if ((occupied_[0] >> slot0 & 1) != 0) {
    for (ProcId id = take(0, slot0); id != kNil; id = link_[id]) {
      drain_entries_.push_back(id);
    }
    merged = true;
  }

  // Entering a new block at level L >= 1 cascades that block's slot. Levels
  // 1..L-1 are empty: their wakes lay in the cursor's level-L block, all
  // before now. Every entry lands strictly lower or is due now.
  const Cycle moved = now ^ cursor_;
  cursor_ = now;
  if (moved > kSlotMask) {
    const std::size_t level = (std::bit_width(moved) - 1) / kSlotBits;
    const std::size_t slot = (now >> (level * kSlotBits)) & kSlotMask;
    if ((occupied_[level] >> slot & 1) != 0) {
      ProcId id = take(level, slot);
      while (id != kNil) {
        const ProcId next = link_[id];
        if (wake_[id] == now) {
          drain_entries_.push_back(id);
          merged = true;
        } else {
          place(id, wake_[id], now);
        }
        id = next;
      }
    }
  }

  // Merged drains must be re-sorted by id for deterministic resume order,
  // but most are already sorted (a slot filled during a single
  // registration cycle inherits that cycle's id-ordered drain), so a linear
  // is_sorted pass usually replaces the sort.
  if (merged &&
      !std::is_sorted(drain_entries_.begin(), drain_entries_.end())) {
    sort_drain();
  }
  pending_ -= drain_entries_.size();
  return drain_entries_;
}

void Scheduler::sort_drain() {
  // The ids are distinct (a processor sits in one tier at a time), so a
  // bitmap scan orders them in O(n + p/64): cheaper than a sort once the
  // drain holds a fair share of the p ids.
  const std::size_t p = link_.size();
  if (drain_entries_.size() * 256 < p) {
    std::sort(drain_entries_.begin(), drain_entries_.end());
    return;
  }
  for (ProcId id : drain_entries_) {
    drain_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  drain_entries_.clear();
  for (std::size_t w = 0; w < drain_bits_.size(); ++w) {
    for (std::uint64_t bits = drain_bits_[w]; bits != 0; bits &= bits - 1) {
      drain_entries_.push_back(static_cast<ProcId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
    drain_bits_[w] = 0;
  }
}

}  // namespace mcb
