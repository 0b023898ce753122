// Batched multi-rank selection: all of N[d_1], ..., N[d_B] in one run.
//
// The serving layer (src/serve/) coalesces compatible rank queries into a
// single network run; this is the collective that answers them. It
// generalizes the Section 8 filtering scheme the way Nowicki's "parallel
// multiple selection" treats simultaneous ranks: the candidate set is
// filtered as usual, but when the batch's ranks straddle the weighted
// median the candidate set *splits* into an upper and a lower segment, each
// carrying the ranks that fall inside it, and filtering continues per
// segment. Ranks that land exactly on the weighted median are answered on
// the spot.
//
// It is the same program as select_rank (algo/selection.cpp), which is a
// batch of one rank. The batch's unique ranks are kept as a range per
// segment — a split cuts it into a prefix, at most one rank answered on
// the spot, and a suffix — and each processor writes its answers into its
// own row of one p x B array. Every collected segment is a "terminate"
// phase (accumulated into one PhaseStats entry) with a span of its own; a
// batch answered entirely inside filtering still ends with one
// zero-length "terminate" phase and span.
//
// Determinism/lockstep: every branching decision — which ranks resolve,
// whether a segment splits, which segment is processed next — depends only
// on globally known quantities (the rank list and the network-wide counts
// m and m_s produced by Partial-Sums), so all p processors walk identical
// segment queues and stay in collective lockstep without any extra
// coordination traffic.
//
// The win over B independent select_rank runs: the setup census and every
// filtering phase above the first split are paid once instead of B times,
// and ranks that are still together when their segment reaches the
// termination threshold share one survivor collection, answering the whole
// cluster for one collection plus B broadcast cycles. Clustered rank
// batches (e.g. tail quantiles of one distribution) ride the shared prefix
// almost to the end — bench/bench_serve.cpp measures the resulting
// cycles-per-query gap.
#pragma once

#include <cstddef>
#include <vector>

#include "algo/selection.hpp"
#include "mcb/sim_config.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"
#include "mcb/types.hpp"

namespace mcb {
class Network;
}  // namespace mcb

namespace mcb::algo {

struct MultiSelectionResult {
  /// values[j] is the ds[j]-th largest element — parallel to the requested
  /// rank list, duplicates and arbitrary order included.
  std::vector<Word> values;
  /// Filtering rounds executed across all segments (a shared round counts
  /// once; the single-rank equivalent of the batch would pay one per rank).
  std::size_t filter_phases = 0;
  RunStats stats;
};

/// Selects every requested rank (1-based, each <= n, d-th largest) in one
/// network run. `ds` may repeat ranks and need not be sorted. Every
/// processor must hold at least one element; all values distinct.
MultiSelectionResult select_ranks(const SimConfig& cfg,
                                  const std::vector<std::vector<Word>>& inputs,
                                  const std::vector<std::size_t>& ds,
                                  SelectionOptions opts = {},
                                  TraceSink* sink = nullptr);

/// Same collective, but installed onto a caller-owned network — the serving
/// layer's entry point. `net` must be freshly constructed or reset(), with
/// net.config().p == inputs.size(); the run reuses whatever allocations the
/// network carries. The caller resets again before the next batch.
MultiSelectionResult select_ranks_on(Network& net,
                                     const std::vector<std::vector<Word>>& inputs,
                                     const std::vector<std::size_t>& ds,
                                     SelectionOptions opts = {});

}  // namespace mcb::algo
