// Tests of the small collectives (reduce, broadcast, extrema, counting) —
// Section 1's "extrema finding" problem in the multi-channel model.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/collectives.hpp"
#include "algo/common.hpp"
#include "algo/selection.hpp"
#include "util/workload.hpp"

namespace mcb::algo {
namespace {

TEST(CollectivesTest, FindMaxAcrossShapes) {
  for (auto shape : {util::Shape::kEven, util::Shape::kZipf,
                     util::Shape::kOneHot}) {
    auto w = util::make_workload(300, 12, shape, 5);
    Word expect = std::numeric_limits<Word>::min();
    for (const auto& in : w.inputs) {
      for (Word v : in) expect = std::max(expect, v);
    }
    auto res = run_find_max({.p = 12, .k = 4}, w.inputs);
    EXPECT_EQ(res.value, expect) << util::to_string(shape);
  }
}

TEST(CollectivesTest, FindMinMatchesOracle) {
  auto w = util::make_workload(200, 8, util::Shape::kRandom, 9);
  Word expect = std::numeric_limits<Word>::max();
  for (const auto& in : w.inputs) {
    for (Word v : in) expect = std::min(expect, v);
  }
  auto res = run_find_min({.p = 8, .k = 2}, w.inputs);
  EXPECT_EQ(res.value, expect);
}

TEST(CollectivesTest, ExtremaCostMatchesPartialSums) {
  // O(p/k + log k) cycles, O(p) messages: extrema are as cheap as one
  // Partial-Sums pass plus the total broadcast.
  auto w = util::make_workload(4096, 64, util::Shape::kEven, 2);
  auto res = run_find_max({.p = 64, .k = 8}, w.inputs);
  EXPECT_LE(res.stats.cycles, 4 * (64 / 8) + 20);
  EXPECT_LE(res.stats.messages, 3 * 64);
}

TEST(CollectivesTest, CountGe) {
  auto w = util::make_workload(500, 10, util::Shape::kRandom, 3);
  std::vector<Word> all;
  for (const auto& in : w.inputs) all.insert(all.end(), in.begin(), in.end());
  std::sort(all.begin(), all.end(), std::greater<Word>{});
  const Word pivot = all[123];
  auto res = run_count_ge({.p = 10, .k = 5}, w.inputs, pivot);
  EXPECT_EQ(res.value, 124);  // distinct values: exactly 124 are >= all[123]
}

TEST(CollectivesTest, EmptyLocalListsAllowed) {
  std::vector<std::vector<Word>> inputs{{}, {7}, {}, {3, 9}};
  auto res = run_find_max({.p = 4, .k = 2}, inputs);
  EXPECT_EQ(res.value, 9);
  auto cnt = run_count_ge({.p = 4, .k = 2}, inputs, 5);
  EXPECT_EQ(cnt.value, 2);  // 7 and 9
}

TEST(CollectivesTest, BroadcastFromEveryRoot) {
  const std::size_t p = 6;
  for (ProcId root = 0; root < p; ++root) {
    Network net({.p = p, .k = 3});
    std::vector<Word> got(p, 0);
    auto prog = [](Proc& self, ProcId r, Word& out) -> ProcMain {
      auto cast = broadcast_word(self, self.id() == r, Word{555},
                                 "broadcast missing");
      out = co_await cast;
    };
    for (ProcId i = 0; i < p; ++i) {
      net.install(i, prog(net.proc(i), root, got[i]));
    }
    auto stats = net.run();
    EXPECT_EQ(stats.cycles, 1u);
    EXPECT_EQ(stats.messages, 1u);
    for (Word v : got) {
      EXPECT_EQ(v, 555);
    }
  }
}

TEST(CollectivesTest, ReduceComposesWithSelection) {
  // Use count_ge to verify a selection result in-network: the count of
  // elements >= N[d] must be exactly d (distinct values).
  auto w = util::make_workload(256, 8, util::Shape::kEven, 7);
  const std::size_t d = 100;
  auto sel = select_rank({.p = 8, .k = 4}, w.inputs, d);
  auto cnt = run_count_ge({.p = 8, .k = 4}, w.inputs, sel.value);
  EXPECT_EQ(static_cast<std::size_t>(cnt.value), d);
}

}  // namespace
}  // namespace mcb::algo
