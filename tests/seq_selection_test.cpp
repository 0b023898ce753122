// Tests of sequential selection (BFPRT) against sorting
// oracles, including the paper's 1-based largest-first rank convention.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "seq/selection.hpp"
#include "util/random.hpp"

namespace mcb::seq {
namespace {

std::vector<Word> random_vec(std::size_t n, std::uint64_t seed,
                             std::int64_t lo = -500, std::int64_t hi = 500) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<Word> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

Word oracle_kth_largest(std::vector<Word> v, std::size_t d) {
  std::sort(v.begin(), v.end(), std::greater<Word>{});
  return v[d - 1];
}

TEST(SelectionTest, KthLargestAllRanksSmall) {
  for (std::size_t n : {1u, 2u, 5u, 11u, 40u}) {
    auto base = random_vec(n, n * 13);
    for (std::size_t d = 1; d <= n; ++d) {
      auto v = base;
      EXPECT_EQ(kth_largest(v, d), oracle_kth_largest(base, d))
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(SelectionTest, KthLargestSampledRanksLarge) {
  for (std::size_t n : {1000u, 4097u}) {
    auto base = random_vec(n, n);
    for (std::size_t d : {std::size_t{1}, n / 4, n / 2, n - 1, n}) {
      auto v = base;
      EXPECT_EQ(kth_largest(v, d), oracle_kth_largest(base, d))
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(SelectionTest, ManyDuplicates) {
  // Three-way partitioning must stay linear and correct with few distinct
  // values.
  auto v = random_vec(2000, 4, 0, 3);
  auto base = v;
  for (std::size_t d : {std::size_t{1}, std::size_t{500}, std::size_t{1000},
                        std::size_t{2000}}) {
    v = base;
    EXPECT_EQ(kth_largest(v, d), oracle_kth_largest(base, d)) << "d=" << d;
  }
}

TEST(SelectionTest, MedianUsesCeilHalfConvention) {
  // Section 3: the median is N[ceil(n/2)], ranks counted from the largest.
  std::vector<Word> odd{10, 30, 20, 50, 40};   // sorted desc: 50 40 30 20 10
  EXPECT_EQ(median(odd), 30);                  // rank ceil(5/2)=3
  std::vector<Word> even{4, 1, 3, 2};          // desc: 4 3 2 1
  EXPECT_EQ(median(even), 3);                  // rank ceil(4/2)=2
  std::vector<Word> one{7};
  EXPECT_EQ(median(one), 7);
}

TEST(SelectionTest, RankOutOfRangeThrows) {
  std::vector<Word> v{1, 2, 3};
  EXPECT_THROW(kth_largest(v, 0), std::invalid_argument);
  EXPECT_THROW(kth_largest(v, 4), std::invalid_argument);
  std::vector<Word> empty;
  EXPECT_THROW(median(empty), std::invalid_argument);
}

TEST(SelectionTest, CopyVariantPreservesInput) {
  const std::vector<Word> v{5, 9, 1, 7, 3};
  const auto before = v;
  EXPECT_EQ(kth_largest_copy(v, 2), 7);
  EXPECT_EQ(v, before);
}

TEST(SelectionTest, WorstCasePatternsStayCorrect) {
  // Sorted, reverse-sorted and organ-pipe inputs exercise BFPRT pivot
  // quality; correctness is what we assert (linearity is by construction).
  const std::size_t n = 3000;
  std::vector<Word> asc(n), desc(n), organ(n);
  for (std::size_t i = 0; i < n; ++i) {
    asc[i] = static_cast<Word>(i);
    desc[i] = static_cast<Word>(n - i);
    organ[i] = static_cast<Word>(std::min(i, n - i));
  }
  for (auto* base : {&asc, &desc, &organ}) {
    for (std::size_t d : {std::size_t{1}, n / 2, n}) {
      auto v = *base;
      EXPECT_EQ(kth_largest(v, d), oracle_kth_largest(*base, d));
    }
  }
}

}  // namespace
}  // namespace mcb::seq
