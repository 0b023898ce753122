// Shared core of the distributed Columnsort implementations: the
// transformation phases 1-9 run by the column representatives, and the
// double-broadcast redistribution of phase 10. Used by the even
// (Section 5.2) and uneven (Section 7.2) sorting algorithms and, through
// the even collective, by selection (Section 8).
//
// The core sorts (key, value) pairs — KV — descending by key; plain-Word
// entry points wrap values of zero around this. Messages carry at most
// (key, value, destination-row), within the model's O(log beta)-bit budget.
//
// Internal header — not part of the public API surface.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/common.hpp"
#include "mcb/coro.hpp"
#include "seq/columnsort.hpp"
#include "mcb/proc.hpp"
#include "sched/schedule.hpp"

namespace mcb::algo::detail {

/// Static plan for one Columnsort instance over kk columns of length m.
/// Deterministically derivable from (m, kk); shared across all processors.
struct CorePlan {
  std::size_t kk = 0;  ///< number of columns (and of representatives)
  std::size_t m = 0;   ///< column length (padded: kk | m, m >= kk(kk-1))
  std::array<std::vector<std::uint32_t>, 4> tables;
  std::array<sched::TransferPlan, 4> plans;
  Cycle core_cycles = 0;  ///< total channel cycles of phases 2, 4, 6, 8

  /// Builds tables and broadcast schedules. Requires valid dimensions
  /// (seq::columnsort_dims_ok(m, kk, variant)).
  static CorePlan build(std::size_t m, std::size_t kk,
                        seq::ColumnsortVariant variant =
                            seq::ColumnsortVariant::kUndiagonalize);

  /// The one immutable plan for (m, kk, variant), built on first use and
  /// shared by every caller that holds it, across threads. Once the last
  /// holder lets go only the most recently built plan is kept, so repeated
  /// runs of one shape build it once and the memory held stays one plan.
  static std::shared_ptr<const CorePlan> shared(
      std::size_t m, std::size_t kk,
      seq::ColumnsortVariant variant = seq::ColumnsortVariant::kUndiagonalize);
};

/// Sorts a column descending by (key, val). After a transformation a
/// column is a few sorted runs, which this merges.
void sort_column_desc(std::vector<KV>& column);

/// One matrix transformation (phase 2/4/6/8) from the point of view of the
/// representative owning column `my_col`; `t` indexes CorePlan::plans. The
/// plan fixes every round before any data moves, so the whole
/// transformation is one Proc::window.
Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column);

/// Phases 1-9 for a representative (column owner). `column` must already be
/// padded to length plan.m. Non-representatives sleep plan.core_cycles.
Task<void> columnsort_phases(Proc& self, const CorePlan& plan,
                             std::size_t my_col, std::vector<KV>& column);

/// Phase 10: representatives broadcast the real (non-dummy) prefix of their
/// sorted columns twice; every processor collects its final segment of
/// global ranks [lo, hi). `n` is the number of real elements; `column` is
/// ignored for non-representatives. Costs exactly 2*m cycles, as at most
/// two Proc::windows per processor.
Task<void> redistribute(Proc& self, const CorePlan& plan, bool is_rep,
                        std::size_t my_col, const std::vector<KV>& column,
                        std::size_t n, std::size_t lo, std::size_t hi,
                        std::vector<KV>& output);

}  // namespace mcb::algo::detail
