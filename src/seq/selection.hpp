// Sequential selection substrate.
//
// The paper's local median computations cite [Blum73] — the linear-time
// median-of-medians algorithm (BFPRT). This module implements it from
// scratch. Rank conventions follow the paper: ranks are 1-based and count
// from the LARGEST element (N[1] is the maximum, N[n] the minimum,
// N[ceil(n/2)] the median — Section 3).
#pragma once

#include <cstddef>
#include <span>

#include "mcb/types.hpp"

namespace mcb::seq {

/// d-th largest element, 1 <= d <= v.size(), deterministic O(n) worst case
/// (median of medians, groups of 5). Reorders v.
Word kth_largest(std::span<Word> v, std::size_t d);

/// The paper's median: element of rank ceil(n/2) from the top. Reorders v.
Word median(std::span<Word> v);

/// Convenience for const input: copies, then selects.
Word kth_largest_copy(std::span<const Word> v, std::size_t d);

}  // namespace mcb::seq
