// Distributed Columnsort for evenly distributed inputs (Section 5.2).
//
// The n elements (n/p per processor) are sorted so that afterwards P_i holds
// the i-th descending segment of n/p elements. Structure, following the
// paper:
//
//   phase 0      gather: the p processors form kk groups; each group's
//                elements are collected into its representative, one member
//                at a time on the group's channel (skipped when p == kk).
//   phases 1-9   Columnsort over kk columns owned by the representatives.
//                Local sorts are free in the cycle measure; each matrix
//                transformation runs a collision-free broadcast schedule
//                from sched/schedule (<= m cycles each).
//   phase 10     redistribute: representatives broadcast their sorted
//                columns twice (the double broadcast lets every processor
//                collect a segment that straddles two columns); skipped when
//                no padding was needed and p == kk.
//
// kk is the number of columns actually used: the largest divisor of p that
// is <= k and satisfies the Columnsort dimension requirement
// m >= kk(kk-1) — for n >= k^2(k-1) (and k | p) that is k itself; for
// smaller inputs fewer columns are used, exactly as the paper prescribes
// (Section 5.2 suggests ~n^{1/3} columns; the divisor search finds the best
// feasible count).
//
// Complexity: O(n) messages and O(n/kk) cycles — Theta(n/k) cycles whenever
// kk == k, which by Corollary 5 is optimal.
//
// Three entry points: a standalone Word sort, a standalone (key, value)
// pair sort, and an in-run *collective* used by the selection algorithm to
// sort its (median, count) pairs each filtering phase.
#pragma once

#include <cstddef>
#include <memory>
#include <variant>
#include <vector>

#include "algo/columnsort_core.hpp"
#include "algo/common.hpp"
#include "algo/runner.hpp"
#include "mcb/sim_config.hpp"
#include "mcb/types.hpp"

namespace mcb::algo {

struct ColumnsortEvenOptions {
  /// Number of columns to use; 0 = automatic (largest feasible). Must
  /// divide p and satisfy the dimension requirement if given.
  std::size_t columns = 0;
  /// Phase-4 transformation: the paper's un-diagonalize (default) or
  /// Leighton's untranspose (ablation; needs m >= 2(k-1)^2).
  seq::ColumnsortVariant variant = seq::ColumnsortVariant::kUndiagonalize;
};

/// Precomputed plan for the even sort collective: fully determined by
/// (p, k, ni) and sharable across repeated invocations (the selection
/// algorithm reuses one plan for every filtering phase).
struct EvenSortPlan {
  std::size_t p = 0;
  std::size_t kk = 0;  ///< columns used
  std::size_t g = 0;   ///< group size p / kk
  std::size_t n = 0;
  std::size_t ni = 0;  ///< elements per processor
  bool redistribute = false;
  /// Shared with every plan of the same Columnsort shape
  /// (detail::CorePlan::shared).
  std::shared_ptr<const detail::CorePlan> core;

  /// Throws std::invalid_argument on infeasible parameters.
  static EvenSortPlan build(std::size_t p, std::size_t k, std::size_t ni,
                            std::size_t columns = 0,
                            seq::ColumnsortVariant variant =
                                seq::ColumnsortVariant::kUndiagonalize);
};

/// The collective: sorts `data` (exactly plan.ni pairs per processor, keys
/// != kDummy) descending across the network; on return `data` holds this
/// processor's segment. All processors must co_await together. A step
/// awaiter (Proc::StepAwaiter): phase 0's gather stream, then phases 1-9
/// and phase 10 as sub-awaiters it steps in place.
class [[nodiscard]] EvenSort : public Proc::StepAwaiter<EvenSort> {
 public:
  EvenSort(Proc& self, const EvenSortPlan& plan, std::vector<KV>& data);

  bool begin(Proc& self);
  bool step(Proc& self);

 private:
  enum class Stage : std::uint8_t { kGather, kCore, kRedistribute };

  // Enter phases 1-9, and phase 10; false once the sort is done.
  bool core(Proc& self);
  bool redistribute(Proc& self);

  const EvenSortPlan* plan_;
  std::vector<KV>* data_;
  std::vector<KV> column_;  ///< the representative's column
  std::size_t j_;           ///< group / column index
  std::size_t idx_;         ///< index within the group
  bool is_rep_;             ///< highest-numbered member of the group
  Stage stage_ = Stage::kGather;
  obs::Span span_;
  std::variant<std::monostate, Stream<KV>, detail::ColumnsortPhases,
               detail::Redistribute>
      sub_;
};

inline EvenSort columnsort_even_collective(Proc& self,
                                           const EvenSortPlan& plan,
                                           std::vector<KV>& data) {
  return EvenSort(self, plan, data);
}

struct ColumnsortEvenResult {
  AlgoResult run;              ///< outputs[i] = P_i's sorted segment; stats
  std::size_t columns = 0;     ///< kk actually used
  std::size_t column_len = 0;  ///< m (after padding)
};

/// Standalone driver for plain values. Requires: all inputs the same
/// non-zero size, values != kDummy.
ColumnsortEvenResult columnsort_even(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs,
    ColumnsortEvenOptions opts = {}, TraceSink* sink = nullptr);

struct ColumnsortPairsResult {
  std::vector<std::vector<KV>> outputs;
  RunStats stats;
  std::size_t columns = 0;
  std::size_t column_len = 0;
};

/// Standalone driver for (key, value) pairs, ordered by key descending.
ColumnsortPairsResult columnsort_even_pairs(
    const SimConfig& cfg, const std::vector<std::vector<KV>>& inputs,
    ColumnsortEvenOptions opts = {}, TraceSink* sink = nullptr);

/// The column count columnsort_even would pick for (n, p, k).
std::size_t choose_columns(std::size_t n, std::size_t p, std::size_t k,
                           seq::ColumnsortVariant variant =
                               seq::ColumnsortVariant::kUndiagonalize);

}  // namespace mcb::algo
