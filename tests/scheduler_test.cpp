// Property tests of the event engine's wake queue, driven directly: random
// schedule_wake / next_wake / collect / refile_due sequences checked
// against a std::set<(wake, id)> oracle. Wake offsets straddle every wheel
// level boundary (64^j - 1, 64^j and 64^j + 1 for j = 1..3: the old level-0
// width, the 4,096-slot level 0 and the first level above it, plus far
// wakes that cascade through many levels), both relative to the cursor and
// aligned to absolute block boundaries, and the cursor fast-forwards across
// several levels at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "mcb/scheduler.hpp"
#include "util/random.hpp"

namespace mcb {
namespace {

constexpr Cycle kLevel1 = 64;
constexpr Cycle kLevel2 = 64 * 64;
constexpr Cycle kLevel3 = 64 * 64 * 64;
constexpr Cycle kNone = ~Cycle{0};

class SchedulerOracle {
 public:
  explicit SchedulerOracle(std::size_t p) : sched_(p, 1), p_(p) {
    for (ProcId id = 0; id < p; ++id) free_.push_back(id);
  }

  Cycle now() const { return now_; }
  const std::vector<ProcId>& free_ids() const { return free_; }
  bool empty() const { return due_.empty(); }

  /// Takes the idle processor at `free_index` out of the free list.
  ProcId take_free(std::size_t free_index) {
    const ProcId id = free_[free_index];
    free_[free_index] = free_.back();
    free_.pop_back();
    return id;
  }

  void schedule(ProcId id, Cycle wake) {
    sched_.schedule_wake(id, wake, now_);
    due_.emplace(wake, id);
  }

  /// next_wake must equal the oracle's minimum.
  Cycle check_next_wake() {
    const Cycle got = sched_.next_wake(now_);
    EXPECT_EQ(got, due_.begin()->first) << "cursor " << now_;
    return due_.begin()->first;
  }

  /// collect(t) must return exactly the oracle's ids due at t, ascending.
  void drain(Cycle t) {
    std::vector<ProcId> want;
    while (!due_.empty() && due_.begin()->first == t) {
      want.push_back(due_.begin()->second);
      due_.erase(due_.begin());
    }
    const std::vector<ProcId>& got = sched_.collect(t);
    EXPECT_EQ(got, want) << "collect at " << t << " after " << now_;
    free_.insert(free_.end(), want.begin(), want.end());
    drained_ = want;
    now_ = t;
    EXPECT_EQ(sched_.next_wake(now_) == kNone, due_.empty());
  }

  /// A dense stretch: the ids of the latest drain are filed again, unchanged,
  /// for cycle t (no other wake lies before t), then collected at t.
  void stretch(Cycle t) {
    sched_.refile_due();
    for (ProcId id : drained_) {
      free_.erase(std::find(free_.begin(), free_.end(), id));
      due_.emplace(t, id);
    }
    drain(t);
  }

  /// The earliest wake the oracle holds (kNone: none).
  Cycle earliest() const { return due_.empty() ? kNone : due_.begin()->first; }

  void reset() {
    sched_.reset();
    due_.clear();
    drained_.clear();
    free_.clear();
    for (ProcId id = 0; id < p_; ++id) free_.push_back(id);
    now_ = 0;
  }

 private:
  Scheduler sched_;
  std::size_t p_;
  std::set<std::pair<Cycle, ProcId>> due_;
  std::vector<ProcId> free_;
  std::vector<ProcId> drained_;
  Cycle now_ = 0;
};

std::size_t pick(util::Xoshiro256StarStar& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(n) - 1));
}

/// A wake offset from `now`: exact level boundaries (relative to the cursor
/// and to absolute block starts), short hops, and far wakes.
Cycle random_wake(util::Xoshiro256StarStar& rng, Cycle now) {
  static constexpr Cycle kOffsets[] = {
      1,           2,           3,           kLevel1 - 1, kLevel1,
      kLevel1 + 1, kLevel2 - 1, kLevel2,     kLevel2 + 1, kLevel3 - 1,
      kLevel3,     kLevel3 + 1, Cycle{1} << 30, (Cycle{1} << 36) + 1,
      Cycle{1} << 42};
  switch (rng.uniform(0, 3)) {
    case 0:
      return now + kOffsets[pick(rng, std::size(kOffsets))];
    case 1: {
      // Just before, at or just after the next level-j block boundary.
      static constexpr Cycle kBlocks[] = {kLevel1, kLevel2, kLevel3,
                                          kLevel3 * 64, Cycle{1} << 36};
      const Cycle block = kBlocks[pick(rng, std::size(kBlocks))];
      const Cycle start = (now / block + 1) * block;
      const Cycle wake = start - 1 + static_cast<Cycle>(rng.uniform(0, 2));
      return wake > now ? wake : now + 1;
    }
    case 2:
      return now + 1 + static_cast<Cycle>(rng.uniform(0, kLevel1));
    default:
      return now + 1 +
             static_cast<Cycle>(rng.uniform(0, std::int64_t{1}
                                                   << rng.uniform(1, 24)));
  }
}

void fuzz(std::uint64_t seed, int steps) {
  util::Xoshiro256StarStar rng(seed);
  SchedulerOracle o(48);
  for (int step = 0; step < steps; ++step) {
    // Register a few of the idle processors at the cursor in ascending id
    // order, as the drain loop's resumed processors do.
    std::vector<ProcId> regs;
    for (auto n = rng.uniform(0, 6); n > 0 && !o.free_ids().empty(); --n) {
      regs.push_back(o.take_free(pick(rng, o.free_ids().size())));
    }
    std::sort(regs.begin(), regs.end());
    for (ProcId id : regs) o.schedule(id, random_wake(rng, o.now()));
    if (rng.uniform(0, 199) == 0) {
      o.reset();
      continue;
    }
    if (o.empty()) {
      o.drain(o.now() + 1 + static_cast<Cycle>(rng.uniform(0, 100)));
      continue;
    }
    if (regs.empty() && rng.uniform(0, 3) == 0) {
      // The latest drain's ids stay due through a dense stretch that ends
      // anywhere up to the next wake (at most 2^20 cycles on).
      const Cycle last = std::min(o.earliest(), o.now() + (Cycle{1} << 20));
      o.stretch(o.now() + 1 +
                static_cast<Cycle>(rng.uniform(
                    0, static_cast<std::int64_t>(last - o.now() - 1))));
      if (::testing::Test::HasFailure()) return;
      continue;
    }
    const Cycle next = o.check_next_wake();
    // Drain at the next wake (a fast-forward, possibly across several
    // levels), at the following cycle, or anywhere in between.
    switch (rng.uniform(0, 3)) {
      case 0:
        o.drain(o.now() + 1);
        break;
      case 1:
        o.drain(o.now() + 1 +
                static_cast<Cycle>(rng.uniform(
                    0, static_cast<std::int64_t>(
                           std::min<Cycle>(next - o.now() - 1, 1 << 20)))));
        break;
      default:
        o.drain(next);
        break;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerTest, MatchesOracleAcrossLevelBoundaries) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    fuzz(seed, 20000);
    if (HasFailure()) return;
  }
}

TEST(SchedulerTest, EveryLevelBoundaryFromCycleZero) {
  // One processor per wake at kSlots^j - 1, kSlots^j and kSlots^j + 1 for
  // every level, registered at cycle 0: each must surface at its cycle in
  // wake order, cascading through every level on the way down.
  SchedulerOracle o(64);
  std::vector<Cycle> wakes;
  for (Cycle block = kLevel1; block != 0 && block <= (Cycle{1} << 60);
       block *= 64) {
    wakes.push_back(block - 1);
    wakes.push_back(block);
    wakes.push_back(block + 1);
  }
  wakes.push_back(~Cycle{0} - 1);  // the top level
  for (Cycle w : wakes) o.schedule(o.take_free(0), w);
  while (!o.empty()) o.drain(o.check_next_wake());
}

}  // namespace
}  // namespace mcb
