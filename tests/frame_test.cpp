// Frame-count pins: a processor's program is its only coroutine frame.
// Partial-Sums, the collectives, the group sorts, every Columnsort, the
// block streams and selection's termination are step awaiters held in the
// program's frame (Proc::StepAwaiter), so a run of any of them allocates
// exactly p frames — the programs installed before it — on both engines,
// and a reset network allocates p again per batch, in the same memory.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/collectives.hpp"
#include "algo/columnsort_even.hpp"
#include "algo/mergesort.hpp"
#include "algo/multi_select.hpp"
#include "algo/ranksort.hpp"
#include "algo/recursive_columnsort.hpp"
#include "algo/selection.hpp"
#include "algo/uneven_sort.hpp"
#include "algo/virtual_columnsort.hpp"
#include "mcb/network.hpp"
#include "util/workload.hpp"

namespace mcb {
namespace {

constexpr Engine kEngines[] = {Engine::kEventDriven, Engine::kReference};

const char* name(Engine e) {
  return e == Engine::kEventDriven ? "event" : "reference";
}

TEST(FrameTest, SelectRankAllocatesOneFramePerProcessor) {
  const std::size_t p = 64, k = 4;
  const auto w = util::make_workload(4 * p, p, util::Shape::kRandom, 3);
  for (Engine e : kEngines) {
    const auto res = algo::select_rank({.p = p, .k = k, .engine = e},
                                       w.inputs, 100);
    EXPECT_EQ(res.stats.frame_allocs, p) << name(e);
    EXPECT_GT(res.stats.frame_bytes, 0u) << name(e);
  }
}

TEST(FrameTest, EveryRankBatchAllocatesOneFramePerProcessor) {
  // Every rank at once: the batch splits at every filtering phase, so the
  // segment stack runs deep.
  const std::size_t p = 16, k = 2, n = 128;
  const auto w = util::make_workload(n, p, util::Shape::kEven, 5);
  std::vector<std::size_t> ds(n);
  std::iota(ds.begin(), ds.end(), std::size_t{1});
  for (Engine e : kEngines) {
    const auto res =
        algo::select_ranks({.p = p, .k = k, .engine = e}, w.inputs, ds);
    EXPECT_GT(res.filter_phases, 1u) << name(e);
    EXPECT_EQ(res.stats.frame_allocs, p) << name(e);
  }
}

TEST(FrameTest, ColumnsortEvenAllocatesOneFramePerProcessor) {
  const std::size_t p = 32, k = 4;
  const auto w = util::make_workload(64 * p, p, util::Shape::kEven, 7);
  for (Engine e : kEngines) {
    const auto res =
        algo::columnsort_even({.p = p, .k = k, .engine = e}, w.inputs);
    EXPECT_EQ(res.run.stats.frame_allocs, p) << name(e);
  }
}

TEST(FrameTest, UnevenSortAllocatesOneFramePerProcessor) {
  const std::size_t p = 32, k = 4;
  const auto w = util::make_workload(2048, p, util::Shape::kZipf, 11);
  for (Engine e : kEngines) {
    const auto res =
        algo::uneven_sort({.p = p, .k = k, .engine = e}, w.inputs);
    EXPECT_EQ(res.run.stats.frame_allocs, p) << name(e);
  }
}

TEST(FrameTest, CentralSortsAllocateOneFramePerProcessor) {
  const std::size_t p = 16, k = 4;
  const auto w = util::make_workload(32 * p, p, util::Shape::kEven, 19);
  for (Engine e : kEngines) {
    EXPECT_EQ(
        algo::central_sort({.p = p, .k = k, .engine = e}, w.inputs)
            .stats.frame_allocs,
        p)
        << name(e);
    EXPECT_EQ(algo::central_sort_multiread(
                  {.p = p, .k = k, .multi_read = true, .engine = e}, w.inputs)
                  .stats.frame_allocs,
              p)
        << name(e);
  }
}

TEST(FrameTest, GroupSortsAllocateOneFramePerProcessor) {
  const std::size_t p = 16;
  const auto uneven = util::make_workload(8 * p, p, util::Shape::kZipf, 23);
  const auto even = util::make_workload(16 * p, p, util::Shape::kEven, 29);
  for (Engine e : kEngines) {
    const SimConfig one{.p = p, .k = 1, .engine = e};
    const SimConfig four{.p = p, .k = 4, .engine = e};
    EXPECT_EQ(algo::ranksort(one, uneven.inputs).stats.frame_allocs, p)
        << name(e);
    EXPECT_EQ(algo::mergesort(one, uneven.inputs).stats.frame_allocs, p)
        << name(e);
    for (auto ls : {algo::LocalSort::kRankSort, algo::LocalSort::kMergeSort}) {
      EXPECT_EQ(algo::virtual_columnsort(four, even.inputs, {.local_sort = ls})
                    .run.stats.frame_allocs,
                p)
          << name(e);
    }
  }
}

TEST(FrameTest, RecursiveColumnsortAllocatesOneFramePerProcessor) {
  // Two levels of splits: every processor walks both inside one awaiter.
  const std::size_t p = 64, k = 16;
  const auto w = util::make_workload(4 * p, p, util::Shape::kEven, 31);
  for (Engine e : kEngines) {
    const auto res =
        algo::recursive_columnsort({.p = p, .k = k, .engine = e}, w.inputs);
    EXPECT_GE(res.depth, 2u) << name(e);
    EXPECT_EQ(res.run.stats.frame_allocs, p) << name(e);
  }
}

TEST(FrameTest, CollectivesAllocateOneFramePerProcessor) {
  const std::size_t p = 24, k = 4;
  const auto w = util::make_workload(8 * p, p, util::Shape::kRandom, 13);
  for (Engine e : kEngines) {
    const SimConfig cfg{.p = p, .k = k, .engine = e};
    EXPECT_EQ(algo::run_find_max(cfg, w.inputs).stats.frame_allocs, p)
        << name(e);
    EXPECT_EQ(algo::run_count_ge(cfg, w.inputs, 0).stats.frame_allocs, p)
        << name(e);
  }
}

TEST(FrameTest, ServeBatchesOnOneResetNetworkAllocateOneFrameEach) {
  const std::size_t p = 16, k = 4;
  const auto w = util::make_workload(512, p, util::Shape::kRandom, 17);
  const std::vector<std::vector<std::size_t>> batches = {
      {1, 52, 256, 500}, {7, 412}, {300}};
  for (Engine e : kEngines) {
    Network net({.p = p, .k = k, .engine = e});
    std::uint64_t bytes = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (b > 0) net.reset();
      const auto res = algo::select_ranks_on(net, w.inputs, batches[b]);
      EXPECT_EQ(res.stats.frame_allocs, p) << name(e) << " batch " << b;
      if (b == 0) bytes = res.stats.frame_bytes;
      EXPECT_EQ(res.stats.frame_bytes, bytes) << name(e) << " batch " << b;
    }
  }
}

// --- what is charged ---------------------------------------------------------

ProcMain sleeper(Proc& self, Cycle t) { co_await self.window(t); }

TEST(FrameTest, ResetReusesTheProgramFrameRegion) {
  // Program frames are carved from the network's region, which reset()
  // rewinds: the next round's programs take the same memory.
  const std::size_t p = 16;
  Network net({.p = p, .k = 1});
  std::vector<void*> first;
  for (int round = 0; round < 3; ++round) {
    if (round > 0) net.reset();
    for (ProcId i = 0; i < p; ++i) {
      ProcMain prog = sleeper(net.proc(i), i + 1);
      if (round == 0) first.push_back(prog.handle().address());
      EXPECT_EQ(prog.handle().address(), first[i]) << "round " << round;
      net.install(i, std::move(prog));
    }
    const auto stats = net.run();
    EXPECT_EQ(stats.frame_allocs, p);
  }
}

TEST(FrameDeathTest, ProgramFrameUsedAfterResetIsReported) {
#if defined(__SANITIZE_ADDRESS__)
  // reset() poisons the region it rewinds, so a frame of the last round
  // reads as poisoned until the next round carves it again.
  const auto touch_after_reset = [] {
    Network net({.p = 2, .k = 1});
    std::vector<void*> frames;
    for (ProcId i = 0; i < 2; ++i) {
      ProcMain prog = sleeper(net.proc(i), 1);
      frames.push_back(prog.handle().address());
      net.install(i, std::move(prog));
    }
    net.run();
    net.reset();
    return *static_cast<volatile unsigned char*>(frames[1]);
  };
  EXPECT_DEATH(touch_after_reset(), "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

}  // namespace
}  // namespace mcb
