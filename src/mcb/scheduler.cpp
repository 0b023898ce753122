#include "mcb/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

namespace mcb {

Scheduler::Scheduler(std::size_t p, std::size_t k)
    : link_(p, kNil), wake_(p, 0), due_bits_((p + 63) / 64, 0) {
  next_bucket_.reserve(p);
  due_.reserve(p);
  spare_.reserve(p);
  dirty_.reserve(k);
}

void Scheduler::reset() {
  next_bucket_.clear();
  due_.clear();
  near_bits_ = {};
  near_words_ = 0;
  far_bits_ = {};
  cursor_ = 0;
  dirty_.clear();
}

void Scheduler::append(Slot& s, bool occupied, ProcId id) {
  link_[id] = kNil;
  if (occupied) {
    link_[s.tail] = id;
  } else {
    s.head = id;
  }
  s.tail = id;
}

void Scheduler::place(ProcId id, Cycle wake, Cycle now) {
  if (wake - now <= kNear) {
    const std::size_t slot = wake & kNearMask;
    std::uint64_t& word = near_bits_[slot / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    append(near_[slot], (word & bit) != 0, id);
    word |= bit;
    near_words_ |= std::uint64_t{1} << (slot / 64);
    return;
  }
  // The highest digit in which wake differs from the cursor; wake - now >
  // kNear puts it above level 0, and wake's digit there is above the
  // cursor's, so the slot lies ahead of the cursor.
  const std::size_t f =
      (static_cast<std::size_t>(std::bit_width(wake ^ now)) - 1 - kNearBits) /
      kSlotBits;
  const std::size_t slot = (wake >> (kNearBits + f * kSlotBits)) & kSlotMask;
  const std::uint64_t bit = std::uint64_t{1} << slot;
  const bool occupied = (far_bits_[f] & bit) != 0;
  Cycle& lo = far_min_[f][slot];
  lo = occupied ? std::min(lo, wake) : wake;
  wake_[id] = wake;
  append(far_[f][slot], occupied, id);
  far_bits_[f] |= bit;
}

Cycle Scheduler::wheel_next_wake() const {
  Cycle best = std::numeric_limits<Cycle>::max();
  // Level 0 is the window (cursor, cursor + kNear]: its earliest wake is
  // the first occupied slot from cursor + 1 on, wrapping around.
  if (near_words_ != 0) {
    const std::size_t start = (cursor_ + 1) & kNearMask;
    const std::size_t w0 = start / 64;
    std::size_t slot;
    if (const std::uint64_t rest = near_bits_[w0] >> (start % 64); rest != 0) {
      slot = start + static_cast<std::size_t>(std::countr_zero(rest));
    } else {
      // The words after w0, else the first word (w0's low bits included).
      const std::uint64_t later = near_words_ & (~std::uint64_t{1} << w0);
      const auto w = static_cast<std::size_t>(
          std::countr_zero(later != 0 ? later : near_words_));
      slot = w * 64 + static_cast<std::size_t>(std::countr_zero(near_bits_[w]));
    }
    best = cursor_ + 1 + ((slot - start) & kNearMask);
  }
  // Above level 0 every level-j wake precedes every level-(j+1) wake, and
  // lower slots precede higher ones, so the first occupied slot of the
  // lowest occupied level holds the earliest of them.
  for (std::size_t f = 0; f + 1 < kLevels; ++f) {
    if (far_bits_[f] == 0) continue;
    const auto slot = static_cast<std::size_t>(std::countr_zero(far_bits_[f]));
    best = std::min(best, far_min_[f][slot]);
    break;
  }
  return best;
}

const std::vector<ProcId>& Scheduler::collect(Cycle t) {
  // The next bucket is id-sorted by construction; swapping it in recycles
  // the previous due set's capacity as the fresh next bucket.
  due_.clear();
  due_.swap(next_bucket_);
  const std::size_t filed = due_.size();

  // Level-0 slot t holds exactly the wakes due at t (slot-window
  // invariant). Take it before the cascade below refills it with t + kNear.
  const std::size_t slot0 = t & kNearMask;
  if (std::uint64_t& word = near_bits_[slot0 / 64];
      (word >> (slot0 % 64) & 1) != 0) {
    for (ProcId id = near_[slot0].head; id != kNil; id = link_[id]) {
      due_.push_back(id);
    }
    word &= ~(std::uint64_t{1} << (slot0 % 64));
    if (word == 0) near_words_ &= ~(std::uint64_t{1} << (slot0 / 64));
  }

  // Entering a new block above level 0 cascades that block's slot. The
  // levels between are empty: their wakes lay in the cursor's block at
  // that level, all before t. Every entry lands strictly lower or is due.
  const Cycle moved = t ^ cursor_;
  cursor_ = t;
  if (moved > kNearMask) {
    const std::size_t f =
        (static_cast<std::size_t>(std::bit_width(moved)) - 1 - kNearBits) /
        kSlotBits;
    const std::size_t slot = (t >> (kNearBits + f * kSlotBits)) & kSlotMask;
    if ((far_bits_[f] >> slot & 1) != 0) {
      far_bits_[f] &= ~(std::uint64_t{1} << slot);
      for (ProcId id = far_[f][slot].head; id != kNil;) {
        const ProcId next = link_[id];
        if (wake_[id] == t) {
          due_.push_back(id);
        } else {
          place(id, wake_[id], t);
        }
        id = next;
      }
    }
  }

  if (due_.size() != filed) order_due();
  return due_;
}

void Scheduler::order_due() {
  // The next bucket, and each registration cycle's share of a slot, is a
  // run of ascending ids.
  if (std::is_sorted(due_.begin(), due_.end())) return;
  // The ids are distinct (a processor sits in one tier at a time), so a
  // bitmap scan orders them in O(n + p/64): cheaper than merge passes once
  // the set holds a fair share of the p ids.
  if (due_.size() * 256 >= link_.size()) {
    for (ProcId id : due_) {
      due_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
    }
    due_.clear();
    for (std::size_t w = 0; w < due_bits_.size(); ++w) {
      for (std::uint64_t bits = due_bits_[w]; bits != 0; bits &= bits - 1) {
        due_.push_back(static_cast<ProcId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
      due_bits_[w] = 0;
    }
    return;
  }
  // Natural merge: each pass merges neighbouring runs pairwise, so r runs
  // take ceil(log2 r) linear passes, and two (a slot filed in one cycle
  // and the next bucket) one.
  for (std::size_t merges = 2; merges > 1;) {
    merges = 0;
    spare_.clear();
    for (auto a = due_.begin(); a != due_.end(); ++merges) {
      const auto b = std::is_sorted_until(a, due_.end());
      const auto c = std::is_sorted_until(b, due_.end());
      std::merge(a, b, b, c, std::back_inserter(spare_));
      a = c;
    }
    due_.swap(spare_);
  }
}

}  // namespace mcb
