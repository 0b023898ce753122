#include "seq/selection.hpp"

#include <utility>
#include <vector>

#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::seq {
namespace {

// Partitions v around pivot value; returns (lt, gt) such that
//   v[0 .. lt)   > pivot   (the "larger" side — descending convention)
//   v[lt .. gt)  == pivot
//   v[gt .. n)   < pivot
// Three-way partition keeps the algorithm linear with duplicate values.
std::pair<std::size_t, std::size_t> partition3(std::span<Word> v,
                                               Word pivot) {
  std::size_t lt = 0, i = 0, gt = v.size();
  while (i < gt) {
    if (v[i] > pivot) {
      std::swap(v[i], v[lt]);
      ++lt;
      ++i;
    } else if (v[i] < pivot) {
      --gt;
      std::swap(v[i], v[gt]);
    } else {
      ++i;
    }
  }
  return {lt, gt};
}

Word median_of_medians(std::span<Word> v);

Word select_bfprt(std::span<Word> v, std::size_t d) {
  while (true) {
    MCB_CHECK(1 <= d && d <= v.size(), "rank " << d << " of " << v.size());
    if (v.size() <= 10) {
      insertion_sort(v, std::greater<Word>{});
      return v[d - 1];
    }
    const Word pivot = median_of_medians(v);
    const auto [lt, gt] = partition3(v, pivot);
    if (d <= lt) {
      v = v.subspan(0, lt);
    } else if (d <= gt) {
      return pivot;
    } else {
      d -= gt;
      v = v.subspan(gt);
    }
  }
}

// Median of the medians of groups of five, gathered destructively into the
// prefix of v so the recursion works in place.
Word median_of_medians(std::span<Word> v) {
  const std::size_t groups = (v.size() + 4) / 5;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * 5;
    const std::size_t len = std::min<std::size_t>(5, v.size() - lo);
    auto grp = v.subspan(lo, len);
    insertion_sort(grp, std::greater<Word>{});
    std::swap(v[g], grp[(len - 1) / 2]);  // group median (upper for even)
  }
  return select_bfprt(v.subspan(0, groups), (groups + 1) / 2);
}

}  // namespace

Word kth_largest(std::span<Word> v, std::size_t d) {
  MCB_REQUIRE(1 <= d && d <= v.size(),
              "rank " << d << " out of range for " << v.size() << " elements");
  return select_bfprt(v, d);
}

Word median(std::span<Word> v) {
  MCB_REQUIRE(!v.empty(), "median of an empty list");
  return kth_largest(v, (v.size() + 1) / 2);
}

Word kth_largest_copy(std::span<const Word> v, std::size_t d) {
  std::vector<Word> tmp(v.begin(), v.end());
  return kth_largest(std::span<Word>(tmp), d);
}

}  // namespace mcb::seq
