// Tests of the single-channel sorting algorithms of Section 6.1: Rank-Sort
// and the distributed Merge-Sort. Both sort arbitrary (uneven)
// distributions in linear cycles/messages; Merge-Sort additionally keeps
// O(1) auxiliary storage per processor — asserted here via the simulator's
// storage accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/mergesort.hpp"
#include "algo/ranksort.hpp"
#include "util/workload.hpp"

namespace mcb::algo {
namespace {

using SortFn = AlgoResult (*)(const SimConfig&,
                              const std::vector<std::vector<Word>>&,
                              TraceSink*);

struct Case {
  const char* name;
  SortFn fn;
};

void expect_sorted_outputs(const std::vector<std::vector<Word>>& inputs,
                           const std::vector<std::vector<Word>>& outputs) {
  std::vector<Word> all;
  for (const auto& x : inputs) all.insert(all.end(), x.begin(), x.end());
  std::sort(all.begin(), all.end(), std::greater<Word>{});
  std::size_t at = 0;
  ASSERT_EQ(inputs.size(), outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), inputs[i].size()) << "P" << i + 1;
    for (Word w : outputs[i]) {
      ASSERT_EQ(w, all[at]) << "P" << i + 1 << " rank " << at;
      ++at;
    }
  }
}

class SingleChannelSort : public ::testing::TestWithParam<Case> {};

TEST_P(SingleChannelSort, SortsEvenDistributions) {
  for (auto [p, ni] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 5}, {2, 1}, {2, 8}, {5, 4}, {8, 8}, {16, 3}}) {
    auto w = util::make_workload(p * ni, p, util::Shape::kEven, p * 100 + ni);
    auto res = GetParam().fn({.p = p, .k = 1}, w.inputs, nullptr);
    expect_sorted_outputs(w.inputs, res.outputs);
  }
}

TEST_P(SingleChannelSort, SortsUnevenDistributions) {
  for (auto shape : {util::Shape::kZipf, util::Shape::kOneHot,
                     util::Shape::kRandom, util::Shape::kStaircase}) {
    for (std::size_t p : {3u, 7u, 12u}) {
      auto w = util::make_workload(6 * p, p, shape, p);
      auto res = GetParam().fn({.p = p, .k = 1}, w.inputs, nullptr);
      expect_sorted_outputs(w.inputs, res.outputs);
    }
  }
}

TEST_P(SingleChannelSort, HandlesDuplicates) {
  std::vector<std::vector<Word>> inputs{
      {7, 7, 7}, {7, 1, 7, 1}, {2, 7}, {1}};
  auto res = GetParam().fn({.p = 4, .k = 1}, inputs, nullptr);
  expect_sorted_outputs(inputs, res.outputs);
}

TEST_P(SingleChannelSort, LinearCyclesAndMessages) {
  const std::size_t p = 8, ni = 32;
  const std::size_t n = p * ni;
  auto w = util::make_workload(n, p, util::Shape::kEven, 5);
  auto res = GetParam().fn({.p = p, .k = 1}, w.inputs, nullptr);
  EXPECT_LE(res.stats.cycles, 5 * n + 4 * p);
  EXPECT_LE(res.stats.messages, 5 * n + 4 * p);
  EXPECT_GE(res.stats.messages, n - ni);  // lower bound: most elements move
}

TEST_P(SingleChannelSort, WorksOnMultiChannelNetworkUsingOneChannel) {
  // The algorithms only touch channel 0 even when more channels exist.
  auto w = util::make_workload(40, 5, util::Shape::kRandom, 3);
  auto res = GetParam().fn({.p = 5, .k = 4}, w.inputs, nullptr);
  expect_sorted_outputs(w.inputs, res.outputs);
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_EQ(res.stats.messages_per_channel[c], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SingleChannelSort,
                         ::testing::Values(Case{"ranksort", &ranksort},
                                           Case{"mergesort", &mergesort}),
                         [](const auto& pinfo) { return pinfo.param.name; });

TEST(MergeSortMemoryTest, ConstantAuxiliaryStorage) {
  // The point of Merge-Sort over Rank-Sort: O(1) aux words per processor,
  // independent of n. Compare n = 64 and n = 1024.
  for (std::size_t ni : {8u, 128u}) {
    auto w = util::make_workload(8 * ni, 8, util::Shape::kEven, 1);
    auto res = mergesort({.p = 8, .k = 1}, w.inputs);
    EXPECT_LE(res.stats.max_peak_aux(), 16u) << "ni=" << ni;
  }
}

TEST(RankSortMemoryTest, LinearAuxiliaryStorageIsAccounted) {
  // Rank-Sort's counters are Theta(n_i + n) aux words; verify the
  // accounting shows growth with n (contrast with Merge-Sort above).
  auto small = ranksort({.p = 4, .k = 1},
                        util::make_workload(32, 4, util::Shape::kEven, 1)
                            .inputs);
  auto large = ranksort({.p = 4, .k = 1},
                        util::make_workload(512, 4, util::Shape::kEven, 1)
                            .inputs);
  EXPECT_GT(large.stats.max_peak_aux(), small.stats.max_peak_aux());
}

TEST(SingleChannelSortTest, EmptyProcessorRejected) {
  std::vector<std::vector<Word>> inputs{{1, 2}, {}};
  EXPECT_THROW(ranksort({.p = 2, .k = 1}, inputs), std::invalid_argument);
  EXPECT_THROW(mergesort({.p = 2, .k = 1}, inputs), std::invalid_argument);
}

TEST(SingleChannelSortTest, MergeSortGroupRejectsEmptyMember) {
  // The whole-network sorts refuse an empty processor up front; called
  // directly, the collective must refuse a member declared with no
  // elements too, by name, as its construction has no top to insert.
  std::vector<std::vector<Word>> data{{4, 1}, {}, {3}};
  const std::vector<std::size_t> sizes{2, 0, 1};
  Network net({.p = 3, .k = 1});
  auto prog = [](Proc& self, const std::vector<std::size_t>& declared,
                 std::vector<Word>& out) -> ProcMain {
    co_await mergesort_group(self, GroupSpec{0, 3, 0}, declared, out);
  };
  for (ProcId i = 0; i < 3; ++i) {
    net.install(i, prog(net.proc(i), sizes, data[i]));
  }
  try {
    net.run();
    FAIL() << "an empty member was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("P2 joins merge-sort with no elements"),
              std::string::npos)
        << e.what();
  }
}

TEST(SingleChannelSortTest, GroupCollectivesRunConcurrently) {
  // Two groups on two channels sort independently at the same time — the
  // usage pattern of the memory-efficient Columnsort (Section 6.1).
  const std::size_t p = 6;
  std::vector<std::vector<Word>> inputs{{9, 2}, {5}, {7, 1, 3},
                                        {8, 8}, {4}, {6, 0, 2}};
  std::vector<std::vector<Word>> outputs(p);
  std::vector<std::size_t> sizes_a{2, 1, 3}, sizes_b{2, 1, 3};
  Network net({.p = p, .k = 2});
  auto prog = [](Proc& self, GroupSpec grp, std::vector<std::size_t> sizes,
                 const std::vector<Word>& in,
                 std::vector<Word>& out) -> ProcMain {
    out = in;
    co_await ranksort_group(self, grp, sizes, out);
  };
  for (ProcId i = 0; i < 3; ++i) {
    net.install(i, prog(net.proc(i), GroupSpec{0, 3, 0}, sizes_a, inputs[i],
                        outputs[i]));
  }
  for (ProcId i = 3; i < 6; ++i) {
    net.install(i, prog(net.proc(i), GroupSpec{3, 3, 1}, sizes_b, inputs[i],
                        outputs[i]));
  }
  net.run();
  // Group A sorted: 9 7 | 5 | 3 2 1 ; group B: 8 8 | 6 | 4 2 0.
  EXPECT_EQ(outputs[0], (std::vector<Word>{9, 7}));
  EXPECT_EQ(outputs[1], (std::vector<Word>{5}));
  EXPECT_EQ(outputs[2], (std::vector<Word>{3, 2, 1}));
  EXPECT_EQ(outputs[3], (std::vector<Word>{8, 8}));
  EXPECT_EQ(outputs[4], (std::vector<Word>{6}));
  EXPECT_EQ(outputs[5], (std::vector<Word>{4, 2, 0}));
}

}  // namespace
}  // namespace mcb::algo
