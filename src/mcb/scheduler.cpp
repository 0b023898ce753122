#include "mcb/scheduler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mcb {

namespace {

/// Heap comparator: the spill heap is a min-heap on the wake cycle (std::
/// *_heap builds a max-heap under the comparator, so "later wakes first"
/// yields the earliest wake at front()).
struct SpillLater {
  template <typename S>
  bool operator()(const S& a, const S& b) const {
    return a.wake > b.wake;
  }
};

}  // namespace

Scheduler::Scheduler(std::size_t p, std::size_t k) {
  next_bucket_.reserve(p);
  drain_entries_.reserve(p);
  active_.reserve(p);
  dirty_.reserve(k);
}

void Scheduler::reset() {
  next_bucket_.clear();
  for (auto& bucket : wheel_) bucket.clear();
  wheel_count_ = 0;
  spill_.clear();
  pending_ = 0;
  drain_entries_.clear();
  active_.clear();
  dirty_.clear();
}

void Scheduler::push_spill(ProcId id, Cycle wake) {
  spill_.push_back(SpillEntry{wake, id});
  std::push_heap(spill_.begin(), spill_.end(), SpillLater{});
}

Cycle Scheduler::next_wake(Cycle now) const {
  if (!next_bucket_.empty()) return now + 1;
  // The earliest pending wake is either in the wheel (scan forward from
  // now+1; every pending wheel wake is within kWheelSize cycles, so the
  // first occupied slot met is the earliest) or at the top of the spill
  // heap — whichever comes first.
  if (wheel_count_ > 0) {
    for (Cycle d = 1; d <= kWheelSize; ++d) {
      const Cycle c = now + d;
      if (!wheel_[c & kWheelMask].empty()) {
        return spill_.empty() ? c : std::min(c, spill_.front().wake);
      }
    }
    MCB_CHECK(false, "wheel count " << wheel_count_ << " but no occupied "
                                    << "slot within the horizon");
  }
  MCB_CHECK(!spill_.empty(), "next_wake on an empty queue");
  return spill_.front().wake;
}

const std::vector<ProcId>& Scheduler::drain_due(Cycle now) {
  // The next bucket is id-sorted by construction; swapping it out recycles
  // the previous drain's capacity as the fresh next bucket.
  drain_entries_.clear();
  std::swap(drain_entries_, next_bucket_);

  // Merge the wheel bucket that has come due. Slot-window invariant: every
  // entry in slot now & mask has wake == now exactly, so the whole bucket
  // drains. Entries arrive across multiple registration cycles, hence in
  // arbitrary id order — remember to re-sort below.
  bool merged = false;
  auto& bucket = wheel_[now & kWheelMask];
  if (!bucket.empty()) {
    drain_entries_.insert(drain_entries_.end(), bucket.begin(), bucket.end());
    wheel_count_ -= bucket.size();
    bucket.clear();  // keeps capacity: the bucket vector is recycled
    merged = true;
  }

  // Merge spill entries that have come due (long sleeps registered beyond
  // the wheel horizon stay in the heap until their cycle arrives).
  while (!spill_.empty() && spill_.front().wake <= now) {
    std::pop_heap(spill_.begin(), spill_.end(), SpillLater{});
    drain_entries_.push_back(spill_.back().id);
    spill_.pop_back();
    merged = true;
  }

  // Merged drains must be re-sorted by id for deterministic resume order,
  // but most are already sorted (a wheel bucket filled during a single
  // registration cycle inherits that cycle's id-ordered drain), so a linear
  // is_sorted pass usually replaces the sort.
  if (merged &&
      !std::is_sorted(drain_entries_.begin(), drain_entries_.end())) {
    std::sort(drain_entries_.begin(), drain_entries_.end());
  }
  pending_ -= drain_entries_.size();
  return drain_entries_;
}

}  // namespace mcb
