// Shared core of the distributed Columnsort implementations: the
// transformation phases 1-9 run by the column representatives, and the
// double-broadcast redistribution of phase 10, two block Streams
// (algo/common.hpp) per processor. Used by the even
// (Section 5.2) and uneven (Section 7.2) sorting algorithms and, through
// the even collective, by selection (Section 8).
//
// The core sorts (key, value) pairs — KV — descending by key; plain-Word
// entry points wrap values of zero around this. Messages carry at most
// (key, value, destination-row), within the model's O(log beta)-bit budget.
// Each step is a step awaiter (Proc::StepAwaiter), held in its caller's
// frame.
//
// Internal header — not part of the public API surface.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "algo/common.hpp"
#include "mcb/proc.hpp"
#include "obs/span.hpp"
#include "sched/schedule.hpp"
#include "seq/columnsort.hpp"

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

/// Columns of many runs shorter than this sort by comparison
/// (seq::intro_sort); longer ones by radix (seq::radix_sort), whose
/// counting passes only pay off past it.
inline constexpr std::size_t kRadixMinColumn = 256;

/// Sorts a column descending by (key, val). After a transformation a
/// column is a few sorted runs, which this merges; an unsorted column (as
/// in phase 1) sorts by comparison below kRadixMinColumn rows and by radix
/// from there on.
void sort_column_desc(std::vector<KV>& column);

class Transform;

/// One matrix transformation (phase 2/4/6/8) from the point of view of the
/// representative owning column `my_col`; `t` indexes CorePlan::plans. The
/// plan fixes every round before any data moves, so the whole
/// transformation is one window. Its tables live on the heap: only
/// representatives build one.
class [[nodiscard]] RunTransform : public Proc::StepAwaiter<RunTransform> {
 public:
  RunTransform(Proc& self, const CorePlan& plan, std::size_t t,
               std::size_t my_col, std::vector<KV>& column);
  ~RunTransform();

  bool begin(Proc& self);
  bool step(Proc& self);

 private:
  std::vector<KV>* column_;
  std::unique_ptr<Transform> tr_;
};

/// Phases 1-9 for a representative (column owner). `column` must already
/// be padded to length plan.m. Non-representatives sleep
/// plan.core_cycles instead (self.window(plan.core_cycles)).
class [[nodiscard]] ColumnsortPhases
    : public Proc::StepAwaiter<ColumnsortPhases> {
 public:
  ColumnsortPhases(Proc& self, const CorePlan& plan, std::size_t my_col,
                   std::vector<KV>& column)
      : StepAwaiter(self), plan_(&plan), my_col_(my_col), column_(&column) {}

  bool begin(Proc& self);
  bool step(Proc& self);

 private:
  // Opens transformation t_, running the local sort after each one that
  // needs no cycles in place; false once phase 8 is done.
  bool transform(Proc& self);
  // Ends transformation t_ and runs the local sort after it; false after
  // phase 8.
  bool finish(Proc& self);
  void sort(Proc& self, const char* span);

  const CorePlan* plan_;
  std::size_t my_col_;
  std::vector<KV>* column_;
  std::uint8_t t_ = 0;  ///< transformation in flight, 0..3
  obs::Span span_;
  std::optional<RunTransform> tr_;
};

/// Phase 10: representatives broadcast the real (non-dummy) prefix of their
/// sorted columns twice; every processor collects its final segment of
/// global ranks [lo, hi). `n` is the number of real elements; `column` is
/// ignored for non-representatives. Costs exactly 2*m cycles, as at most
/// two windows per processor: a pass is one Stream, writing the
/// representative's prefix on its column's channel and reading the part of
/// the segment that lies in one column from that column's channel; the
/// idle cycles between and after them are the streams' lead and trail.
class [[nodiscard]] Redistribute : public Proc::StepAwaiter<Redistribute> {
 public:
  Redistribute(Proc& self, const CorePlan& plan, bool is_rep,
               std::size_t my_col, const std::vector<KV>& column,
               std::size_t n, std::size_t lo, std::size_t hi,
               std::vector<KV>& output);

  bool begin(Proc& self) {
    pass_ = passes_[0].empty() ? 1 : 0;
    return passes_[pass_].begin(self);
  }
  bool step(Proc& self) {
    if (pass_ == 1 || passes_[1].empty()) return false;
    pass_ = 1;
    return passes_[1].begin(self);
  }

 private:
  std::array<Stream<KV>, 2> passes_;
  std::uint8_t pass_ = 0;  ///< the pass in flight
};

}  // namespace mcb::algo::detail
