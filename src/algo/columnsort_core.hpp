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

// --- bursts over fixed windows ---------------------------------------------
//
// Every channel action of the gather, the transformations and the
// redistribution is fixed before any data moves, so those loops run as
// Proc::burst_after chunks of kBurstLen beats: one resume per chunk instead
// of one per cycle. A chunk's beats and read slots live in a heap buffer
// that a processor allocates when its window opens and frees when it
// closes, never in the coroutine frames that every processor carries.

/// Beats per burst chunk.
inline constexpr std::size_t kBurstLen = 32;

/// One chunk's beats and read slots.
struct BurstChunk {
  std::array<Beat, kBurstLen> beats;
  std::array<Proc::ReadResult, kBurstLen> got;
  std::size_t len = 0;  ///< beats filled
};

/// A processor's channel actions over the consecutive cycles [begin, end)
/// of a fixed window: in cycle t it writes the pair src[t] on `wch` when
/// t lies in [0, w1), and reads channel `rch` into dst[t - r0] when t
/// lies in [r0, r1). Cycles in neither range are idle beats.
struct KvWindow {
  std::size_t begin = 0, end = 0;
  ChannelId wch = kNoChannel;
  const KV* src = nullptr;
  std::size_t w1 = 0;
  ChannelId rch = kNoChannel;
  KV* dst = nullptr;
  std::size_t r0 = 0, r1 = 0;
};

/// Walks a KvWindow chunk by chunk:
///   while (!b->done()) {
///     auto aw = b->next(self);
///     co_await aw;
///     b->place();
///   }
class KvBurst {
 public:
  explicit KvBurst(const KvWindow& w) : w_(w), t_(w.begin) {}
  bool done() const { return t_ == w_.end; }
  /// Fills the next chunk's beats and starts its burst.
  Proc::BurstAwaiter next(Proc& self);
  /// Stores the chunk's reads and moves past it.
  void place();

 private:
  KvWindow w_;
  std::size_t t_;
  BurstChunk c_;
};

/// One matrix transformation (phase 2/4/6/8) from the point of view of the
/// representative owning column `my_col`; `t` indexes CorePlan::plans.
Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column);

/// Phases 1-9 for a representative (column owner). `column` must already be
/// padded to length plan.m. Non-representatives call core_skip instead.
Task<void> columnsort_phases(Proc& self, const CorePlan& plan,
                             std::size_t my_col, std::vector<KV>& column);

/// The matching skip for processors that do not own a column.
Task<void> core_skip(Proc& self, const CorePlan& plan);

/// Phase 10: representatives broadcast the real (non-dummy) prefix of their
/// sorted columns twice; every processor collects its final segment of
/// global ranks [lo, hi). `n` is the number of real elements; `column` is
/// ignored for non-representatives. Costs exactly 2*m cycles.
Task<void> redistribute(Proc& self, const CorePlan& plan, bool is_rep,
                        std::size_t my_col, const std::vector<KV>& column,
                        std::size_t n, std::size_t lo, std::size_t hi,
                        std::vector<KV>& output);

}  // namespace mcb::algo::detail
