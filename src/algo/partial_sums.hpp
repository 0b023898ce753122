// The Partial-Sums collective of Section 7.1.
//
// Given a value a_i at each processor P_i and a commutative, associative
// operator ⊕, computes at every processor the prefix a_1 ⊕ ... ⊕ a_i (and
// optionally the neighbouring prefix and the total). Implemented exactly as
// the paper describes: Vishkin's tree machine simulated level by level —
// bottom-up combine, top-down prefix distribution — with each tree node
// simulated by the processor that simulates its left son, so only
// father/right-son messages are sent. Levels near the leaves batch their
// messages k at a time over the channels; the top log k levels take one
// cycle each.
//
// Complexity: O(p/k + log k) cycles and O(p) messages, matching the paper.
// Host cost: processor i acts only at the countr_zero(i) + 1 tree levels it
// simulates and sleeps through the rest in one suspension per action, so
// the collective is O(p) host work in total (docs/ENGINE.md).
//
// This is a *collective*: every processor of the network must co_await it
// in the same cycle, like an MPI collective. General p is supported (the
// conceptual tree is padded to a power of two; dummy nodes simply never
// write, and the detectable silence stands in for the identity value).
#pragma once

#include "mcb/coro.hpp"
#include "mcb/proc.hpp"
#include "mcb/types.hpp"

namespace mcb::algo {

/// The ⊕ operator with its identity element. Must be commutative and
/// associative; both sides only ever see values produced by `a_i`s and ⊕.
struct SumOp {
  Word (*combine)(Word, Word) = nullptr;
  Word identity = 0;

  /// The stock operators, as shared instances: partial_sums holds its
  /// operator by reference across suspensions, so `auto t =
  /// partial_sums(self, a, SumOp::add()); co_await t;` must not leave it
  /// referring to a destroyed temporary.
  static const SumOp& add();
  static const SumOp& max();
  static const SumOp& min();
};

struct PartialSumsOptions {
  bool with_total = false;  ///< broadcast the total to all processors
  bool with_next = false;   ///< also obtain the successor's inclusive prefix
};

struct PartialSumsResult {
  Word before = 0;  ///< a_1 ⊕ ... ⊕ a_{i-1}  (identity for P_1)
  Word self = 0;    ///< a_1 ⊕ ... ⊕ a_i
  Word next = 0;    ///< a_1 ⊕ ... ⊕ a_{i+1}  (== self for P_p; needs with_next)
  Word total = 0;   ///< a_1 ⊕ ... ⊕ a_p       (needs with_total)
};

/// The collective. `a_i` is this processor's input value. `op` must
/// outlive the returned task.
Task<PartialSumsResult> partial_sums(Proc& self, Word a_i, const SumOp& op,
                                     PartialSumsOptions opts = {});

}  // namespace mcb::algo
