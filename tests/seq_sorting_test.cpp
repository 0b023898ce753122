// Tests of the sequential sorting substrate against std oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "seq/sorting.hpp"
#include "util/random.hpp"

namespace mcb::seq {
namespace {

std::vector<Word> random_vec(std::size_t n, std::uint64_t seed,
                             std::int64_t lo = -1000, std::int64_t hi = 1000) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<Word> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

using SortFn = void (*)(std::span<Word>, std::greater<Word>);

struct SortCase {
  const char* name;
  SortFn fn;
};

class SortAlgoTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortAlgoTest, MatchesOracleOnRandomInputs) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 24u, 25u, 100u, 1000u}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      auto v = random_vec(n, seed * 77 + n);
      auto expect = v;
      std::sort(expect.begin(), expect.end(), std::greater<Word>{});
      GetParam().fn(std::span<Word>(v), std::greater<Word>{});
      EXPECT_EQ(v, expect) << GetParam().name << " n=" << n
                           << " seed=" << seed;
    }
  }
}

TEST_P(SortAlgoTest, HandlesAdversarialShapes) {
  for (std::size_t n : {64u, 257u}) {
    std::vector<std::vector<Word>> shapes;
    std::vector<Word> asc(n), desc(n), equal(n, 5), organ(n);
    for (std::size_t i = 0; i < n; ++i) {
      asc[i] = static_cast<Word>(i);
      desc[i] = static_cast<Word>(n - i);
      organ[i] = static_cast<Word>(std::min(i, n - i));
    }
    shapes = {asc, desc, equal, organ};
    for (auto& v : shapes) {
      auto expect = v;
      std::sort(expect.begin(), expect.end(), std::greater<Word>{});
      GetParam().fn(std::span<Word>(v), std::greater<Word>{});
      EXPECT_EQ(v, expect) << GetParam().name << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SortAlgoTest,
    ::testing::Values(
        SortCase{"insertion", &insertion_sort<Word, std::greater<Word>>},
        SortCase{"heap", &heap_sort<Word, std::greater<Word>>},
        SortCase{"merge", &merge_sort<Word, std::greater<Word>>},
        SortCase{"intro", &intro_sort<Word, std::greater<Word>>},
        SortCase{"runs", &sort_by_runs<Word, std::greater<Word>>}),
    [](const auto& pinfo) { return pinfo.param.name; });

TEST(SortingTest, AscendingHelper) {
  auto v = random_vec(500, 9);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  sort_ascending(v);
  EXPECT_EQ(v, expect);
}

TEST(SortingTest, DescendingHelper) {
  auto v = random_vec(500, 10);
  auto expect = v;
  std::sort(expect.begin(), expect.end(), std::greater<Word>{});
  sort_descending(v);
  EXPECT_EQ(v, expect);
  EXPECT_TRUE(is_sorted_descending(v));
}

TEST(SortingTest, IsSortedDescendingDetectsViolation) {
  std::vector<Word> v{5, 4, 4, 3};
  EXPECT_TRUE(is_sorted_descending(v));
  v.push_back(9);
  EXPECT_FALSE(is_sorted_descending(v));
  EXPECT_TRUE(is_sorted_descending(std::span<const Word>{}));
}

TEST(SortingTest, MergeSortIsStable) {
  // Sort pairs by first component only; second component records input
  // order and must be preserved among equal keys.
  struct P {
    int key;
    int tag;
    bool operator==(const P&) const = default;
  };
  util::Xoshiro256StarStar rng(3);
  std::vector<P> v(300);
  for (int i = 0; i < 300; ++i) {
    v[static_cast<std::size_t>(i)] = {
        static_cast<int>(rng.uniform(0, 9)), i};
  }
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const P& a, const P& b) { return a.key < b.key; });
  merge_sort(std::span<P>(v), [](const P& a, const P& b) {
    return a.key < b.key;
  });
  EXPECT_EQ(v, expect);
}

/// `runs` sorted runs of random lengths (some empty) drawn from [lo, hi],
/// concatenated: the shape of a Columnsort column after a transformation.
std::vector<Word> sorted_runs(std::size_t runs, std::size_t max_len,
                              std::int64_t lo, std::int64_t hi,
                              std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<Word> v;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto len = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(max_len)));
    std::vector<Word> run(len);
    for (auto& x : run) x = rng.uniform(lo, hi);
    std::sort(run.begin(), run.end(), std::greater<Word>{});
    v.insert(v.end(), run.begin(), run.end());
  }
  return v;
}

TEST(SortingTest, SortByRunsMatchesOracleOnFewSortedRuns) {
  // Wide values, heavy duplicates, and all-equal columns; run counts on
  // both sides of the merge / introsort cut-over.
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {-1000000, 1000000}, {0, 3}, {7, 7}};
  std::size_t cases = 0;
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t runs : {1u, 2u, 3u, 5u, 8u, 17u, 33u, 40u}) {
      for (std::size_t max_len : {1u, 4u, 9u, 64u, 300u}) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
          auto v = sorted_runs(runs, max_len, lo, hi,
                               seed * 1009 + runs * 31 + max_len);
          auto expect = v;
          std::sort(expect.begin(), expect.end(), std::greater<Word>{});
          sort_by_runs(std::span<Word>(v), std::greater<Word>{});
          EXPECT_EQ(v, expect) << "runs=" << runs << " max_len=" << max_len
                               << " range=[" << lo << "," << hi << "]";
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3u * 8u * 5u * 3u);
}

TEST(SortingTest, SortByRunsMergesStably) {
  // A few long runs take the merge path, which keeps equal keys in input
  // order.
  struct P {
    int key;
    int tag;
    bool operator==(const P&) const = default;
  };
  std::vector<P> v;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 60; ++i) v.push_back({i / 7, run * 100 + i});
  }
  auto expect = v;
  const auto by_key = [](const P& a, const P& b) { return a.key < b.key; };
  std::stable_sort(expect.begin(), expect.end(), by_key);
  sort_by_runs(std::span<P>(v), by_key);
  EXPECT_EQ(v, expect);
}

TEST(SortingTest, RadixSortMatchesStableOracle) {
  // Ascending by the offset-binary image of the key (the signed order),
  // over sizes and ranges that leave one, several or all eight key bytes
  // varying; equal keys keep their input order.
  struct P {
    Word key;
    std::uint32_t tag;
    bool operator==(const P&) const = default;
  };
  const auto digits = [](const P& x) {
    return std::array<std::uint64_t, 1>{static_cast<std::uint64_t>(x.key) ^
                                        (std::uint64_t{1} << 63)};
  };
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {7, 7}, {0, 3}, {-200, 200}, {-1000000, 1000000},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max()}};
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t n : {0u, 1u, 2u, 17u, 256u, 1000u}) {
      util::Xoshiro256StarStar rng(n * 131 + static_cast<std::uint64_t>(hi));
      std::vector<P> v(n);
      for (std::uint32_t i = 0; i < n; ++i) v[i] = {rng.uniform(lo, hi), i};
      auto expect = v;
      std::stable_sort(expect.begin(), expect.end(),
                       [](const P& a, const P& b) { return a.key < b.key; });
      radix_sort(std::span<P>(v), digits);
      EXPECT_EQ(v, expect) << "n=" << n << " range=[" << lo << "," << hi
                           << "]";
    }
  }
}

}  // namespace
}  // namespace mcb::seq
