// Cross-module integration tests: every sorting algorithm agrees with every
// other on identical inputs, selection agrees with sorting at every rank,
// whole-run determinism holds across algorithms, and the simulator's
// safety rails (collision detection, cycle limits) fire inside real
// algorithm contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mcb/mcb.hpp"

namespace mcb {
namespace {

using algo::SortAlgorithm;

std::vector<std::vector<Word>> run_sort(SortAlgorithm a, std::size_t p,
                                        std::size_t k,
                                        const std::vector<std::vector<Word>>& in) {
  return algo::sort({.p = p, .k = k}, in, {.algorithm = a}).run.outputs;
}

TEST(IntegrationTest, AllSortersAgreeOnEvenInput) {
  const std::size_t p = 16, k = 4;
  auto w = util::make_workload(512, p, util::Shape::kEven, 77);
  const auto reference = run_sort(SortAlgorithm::kCentral, p, k, w.inputs);
  for (auto a : {SortAlgorithm::kColumnsortEven,
                 SortAlgorithm::kVirtualColumnsort, SortAlgorithm::kRecursive,
                 SortAlgorithm::kUnevenColumnsort, SortAlgorithm::kRankSort,
                 SortAlgorithm::kMergeSort}) {
    EXPECT_EQ(run_sort(a, p, k, w.inputs), reference)
        << algo::to_string(a);
  }
}

TEST(IntegrationTest, UnevenCapableSortersAgreeOnSkewedInput) {
  const std::size_t p = 12, k = 3;
  auto w = util::make_workload(300, p, util::Shape::kZipf, 5);
  const auto reference = run_sort(SortAlgorithm::kCentral, p, k, w.inputs);
  for (auto a : {SortAlgorithm::kUnevenColumnsort, SortAlgorithm::kRankSort,
                 SortAlgorithm::kMergeSort}) {
    EXPECT_EQ(run_sort(a, p, k, w.inputs), reference)
        << algo::to_string(a);
  }
}

TEST(IntegrationTest, SelectionMatchesSortAtEveryRank) {
  const std::size_t p = 8, k = 2, n = 96;
  auto w = util::make_workload(n, p, util::Shape::kRandom, 3);
  auto sorted = algo::sort({.p = p, .k = k}, w.inputs);
  std::vector<Word> flat;
  for (const auto& out : sorted.run.outputs) {
    flat.insert(flat.end(), out.begin(), out.end());
  }
  for (std::size_t d = 1; d <= n; d += 7) {
    auto res = algo::select_rank({.p = p, .k = k}, w.inputs, d);
    EXPECT_EQ(res.value, flat[d - 1]) << "d=" << d;
  }
}

TEST(IntegrationTest, WholeRunDeterminism) {
  const std::size_t p = 16, k = 4;
  auto w = util::make_workload(1024, p, util::Shape::kEven, 21);
  for (auto a : {SortAlgorithm::kColumnsortEven,
                 SortAlgorithm::kVirtualColumnsort,
                 SortAlgorithm::kRecursive}) {
    auto r1 = algo::sort({.p = p, .k = k}, w.inputs, {.algorithm = a});
    auto r2 = algo::sort({.p = p, .k = k}, w.inputs, {.algorithm = a});
    EXPECT_EQ(r1.run.outputs, r2.run.outputs) << algo::to_string(a);
    EXPECT_EQ(r1.run.stats.cycles, r2.run.stats.cycles);
    EXPECT_EQ(r1.run.stats.messages, r2.run.stats.messages);
    EXPECT_EQ(r1.run.stats.messages_per_proc, r2.run.stats.messages_per_proc);
  }
}

TEST(IntegrationTest, SelectionDeterminism) {
  auto w = util::make_workload(400, 8, util::Shape::kZipf, 4);
  auto a = algo::select_median({.p = 8, .k = 4}, w.inputs);
  auto b = algo::select_median({.p = 8, .k = 4}, w.inputs);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.filter_phases, b.filter_phases);
}

TEST(IntegrationTest, CollisionDetectionFiresInAlgorithmContext) {
  // A deliberately broken protocol: two processors follow the gather
  // schedule with the same offset — the simulator must catch it.
  Network net({.p = 3, .k = 1});
  auto broken = [](Proc& self) -> ProcMain {
    if (self.id() < 2) {
      co_await self.write(0, Message::of(Word(self.id())));
    } else {
      co_await self.read(0);
    }
  };
  for (ProcId i = 0; i < 3; ++i) net.install(i, broken(net.proc(i)));
  EXPECT_THROW(net.run(), CollisionError);
}

TEST(IntegrationTest, MaxCyclesGuardsAgainstRunawayProtocols) {
  Network net({.p = 2, .k = 1, .max_cycles = 64});
  auto spin = [](Proc& self) -> ProcMain {
    while (true) {
      co_await self.read(0);  // waits forever for a message nobody sends
    }
  };
  net.install(0, spin(net.proc(0)));
  net.install(1, spin(net.proc(1)));
  EXPECT_THROW(net.run(), ProtocolError);
}

TEST(IntegrationTest, PartialSumsComposesWithSortInOneRun) {
  // A custom protocol that runs Partial-Sums and then the even-sort
  // collective back to back — the composition pattern of the selection
  // algorithm, exercised directly.
  const std::size_t p = 8, k = 2;
  auto plan = algo::EvenSortPlan::build(p, k, 1);
  std::vector<Word> results(p, 0);
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self, const algo::EvenSortPlan& pl,
                 Word& out) -> ProcMain {
    auto ps = co_await algo::partial_sums(
        self, static_cast<Word>(self.id() + 1), algo::SumOp::add());
    std::vector<algo::KV> pair{algo::KV{ps.self, Word(self.id())}};
    co_await algo::columnsort_even_collective(self, pl, pair);
    out = pair[0].key;
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), plan, results[i]));
  }
  net.run();
  // Prefix sums of 1..8 are 1,3,6,...,36; sorted descending across procs.
  const std::vector<Word> expect{36, 28, 21, 15, 10, 6, 3, 1};
  EXPECT_EQ(results, expect);
}

TEST(IntegrationTest, LargeScaleSmoke) {
  // A bigger configuration touching every phase: p=128, k=16, n=16384.
  const std::size_t p = 128, k = 16, n = 16384;
  auto w = util::make_workload(n, p, util::Shape::kEven, 1);
  auto res = algo::sort({.p = p, .k = k}, w.inputs);
  std::vector<Word> flat;
  for (const auto& out : res.run.outputs) {
    flat.insert(flat.end(), out.begin(), out.end());
  }
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end(),
                             std::greater<Word>{}));
  EXPECT_LE(res.run.stats.cycles, 8 * n / k);
}

}  // namespace
}  // namespace mcb
