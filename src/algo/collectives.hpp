// Small reusable collectives built on Partial-Sums and single broadcasts.
//
// Extrema finding is one of the problems Section 1 cites from the
// single-channel IPBAM literature ("extrema finding, merging and sorting";
// "in our model, these problems are solved without the need for concurrent
// write access") — these helpers are the multi-channel versions:
//
//   reduce        any commutative/associative ⊕ over one value per
//                 processor, result known to everyone:
//                 O(p/k + log k) cycles, O(p) messages
//   find_max/min  extrema of the full distributed multiset (reduce over
//                 local extrema)
//   count_ge      population count of elements >= a pivot (the counting
//                 step the selection algorithm repeats)
//
// All are collectives: every processor must co_await them together. Each
// is one Partial-Sums walk, a step awaiter in the caller's frame. (The
// one-word broadcast is algo::broadcast_word, in algo/common.hpp.)
#pragma once

#include <span>

#include "algo/partial_sums.hpp"
#include "algo/runner.hpp"
#include "mcb/proc.hpp"

namespace mcb::algo {

/// A Partial-Sums with the total, under a "reduce" span, whose co_await
/// yields the total.
class [[nodiscard]] Reduce : public PartialSums {
 public:
  Reduce(Proc& self, Word value, const SumOp& op)
      : PartialSums(self, value, op, {.with_total = true}, true) {}
  Word await_resume() const { return result().total; }
};

/// ⊕-reduction of one value per processor; every processor learns the
/// total. O(p/k + log k) cycles, O(p) messages.
inline Reduce reduce(Proc& self, Word value, const SumOp& op) {
  return Reduce(self, value, op);
}

/// Extrema of the distributed multiset (each processor passes its local
/// list). Empty local lists are allowed as long as one element exists
/// somewhere.
Reduce find_max(Proc& self, std::span<const Word> local);
Reduce find_min(Proc& self, std::span<const Word> local);

/// Number of elements >= pivot across the network.
Reduce count_ge(Proc& self, std::span<const Word> local, Word pivot);

// --- standalone drivers (build a network, run one collective) -------------

struct CollectiveResult {
  Word value = 0;
  RunStats stats;
};

CollectiveResult run_find_max(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs);
CollectiveResult run_find_min(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs);
CollectiveResult run_count_ge(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs,
                              Word pivot);

}  // namespace mcb::algo
