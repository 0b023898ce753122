// The local steps of Section 8's filtering phase, shared by select_rank
// and select_ranks.
//
// They are plain functions so that the selection programs keep their
// temporaries out of the coroutine frame: GCC 12 gives every local of a
// coroutine body a frame slot of its own for the frame's whole life, loop
// counters and range-for iterators included (docs/ENGINE.md, "Memory
// model").
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "algo/common.hpp"
#include "algo/partial_sums.hpp"
#include "seq/selection.hpp"
#include "util/random.hpp"

namespace mcb::algo::filter {

/// Local median of the candidate list, by the paper's convention
/// N[ceil(m/2)]; reorders `cands` (harmless — candidate sets are unordered).
inline Word local_median(std::vector<Word>& cands, bool quick,
                         util::Xoshiro256StarStar& rng) {
  const std::size_t rank = (cands.size() + 1) / 2;
  if (quick) {
    return seq::kth_largest_quickselect(cands, rank, rng);
  }
  return seq::kth_largest(cands, rank);
}

/// Step 1: this processor's (median, count) pair; an empty processor
/// contributes the dummy pair, which sorts to the very end and carries
/// count 0.
inline KV median_pair(std::vector<Word>& cands, bool quick,
                      util::Xoshiro256StarStar& rng) {
  return cands.empty() ? KV{kDummy, 0}
                       : KV{local_median(cands, quick, rng),
                            static_cast<Word>(cands.size())};
}

/// Step 3: the weighted median's broadcast. Over the sorted pairs, `ps`
/// holds the prefix counts; the processor whose prefix first covers half
/// the candidates sends its median `key`, and everyone learns it.
inline WordCast weighted_median_cast(Proc& self, const PartialSumsResult& ps,
                                     Word key) {
  const auto half = (static_cast<std::size_t>(ps.total) + 1) / 2;  // ceil(m/2)
  const bool holds = static_cast<std::size_t>(ps.before) < half &&
                     half <= static_cast<std::size_t>(ps.self);
  return broadcast_word(self, holds, key, "no weighted-median broadcast");
}

/// Step 4: the local count of candidates >= med_star.
inline Word count_at_least(const std::vector<Word>& cands, Word med_star) {
  return static_cast<Word>(
      std::count_if(cands.begin(), cands.end(),
                    [med_star](Word w) { return w >= med_star; }));
}

}  // namespace mcb::algo::filter
