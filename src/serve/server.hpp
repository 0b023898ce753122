// serve::Server — a long-lived network answering a query stream.
//
// The single-shot callers (mcbsim select, examples/topk_query.cpp) pay the
// full Network construction and coroutine-frame cold start per question.
// The server keeps ONE Network alive for the whole session: every batch
// re-installs programs into the same ProcTable/channel-slot allocation via
// Network::reset(), and the frame arenas stay warm, so steady-state batches
// allocate almost nothing (frame_reuses in the `host` member that
// `mcbsim serve --profile` adds shows it).
//
// Admission/batching policy: rank_select and top_k queries are both "give
// me the d-th largest" questions, so up to `batch` of them coalesce into
// one multi-rank selection run (algo::select_ranks_on — the Nowicki-style
// batched filter). A churn op is a write barrier: the pending batch
// flushes first, then the mutation applies host-side (zero simulated
// cycles — resident-set maintenance is local bookkeeping, not broadcast
// traffic). The stream ends with a final flush.
//
// Latency accounting: a query's simulated-cycle latency is the cycles of
// the batch run that answered it — every member of a batch waits for the
// whole run, exactly like requests coalesced behind one scan. A per-class
// obs::Histogram aggregates p50/p95/p99; throughput is queries per 1000
// simulated cycles. The report carries only model-level quantities
// (cycles, messages, values, phases), so it is byte-identical across
// engines for a fixed seed — `tools/ci.sh` cmp's it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcb/sim_config.hpp"
#include "obs/metrics.hpp"
#include "serve/query.hpp"

namespace mcb {
class TraceSink;  // mcb/trace.hpp
}  // namespace mcb

namespace mcb::serve {

struct ServeConfig {
  SimConfig sim;                  ///< p, k, engine
  std::size_t n = 4096;           ///< resident dataset size (p | n)
  std::uint64_t seed = 1;         ///< dataset + stream seed
  std::size_t queries = 64;       ///< stream length
  std::size_t batch = 8;          ///< max rank queries coalesced per run
  std::vector<ClassSpec> classes;  ///< empty = "rank:4,topk:2,churn:1"
  /// Cross-check every answer against Dataset::nth_largest (host-side
  /// ground truth). O(n) per query — for tests, not throughput runs.
  bool verify = false;
  /// Trace sink handed to the persistent Network (nullptr = untraced) —
  /// lets `mcbsim serve --trace-out` capture the whole session's event
  /// stream. Host-side observation only; the deterministic report is
  /// unchanged by it. Must outlive run_server.
  TraceSink* sink = nullptr;
};

/// One answered query, in stream order.
struct QueryRecord {
  std::size_t index = 0;       ///< position in the stream
  std::size_t cls = 0;         ///< class index
  OpKind kind = OpKind::kRankSelect;
  std::size_t rank = 0;        ///< resolved rank d (0 for churn)
  Word value = 0;              ///< the answer (0 for churn)
  std::size_t batch_id = 0;    ///< flush that answered it (0 for churn)
  Cycle latency_cycles = 0;    ///< cycles of that flush's run (0 for churn)
};

struct ServeReport {
  ServeConfig cfg;
  std::vector<QueryRecord> queries;   ///< stream order
  std::size_t batches = 0;            ///< selection runs executed
  Cycle total_cycles = 0;             ///< summed over batch runs
  std::uint64_t total_messages = 0;
  std::size_t churn_ops = 0;
  std::size_t filter_phases = 0;      ///< summed over batch runs
  /// One class's share of the stream.
  struct ClassStats {
    std::uint64_t ops = 0;          ///< operations drawn for the class
    obs::Histogram latency_cycles;  ///< one sample per answered query
  };
  /// Parallel to cfg.classes. cycles/query and queries/kcycle are derived
  /// from total_cycles and the answered counts where they are rendered.
  std::vector<ClassStats> classes;

  /// Host telemetry (excluded from json() and markdown(); host_json()
  /// renders it). Steady-state reuse evidence: frame allocs/reuses summed
  /// over every batch run.
  std::uint64_t frame_allocs = 0;
  std::uint64_t frame_reuses = 0;
  /// Host wall time of each batch run (its RunStats::sim_wall_ns), in
  /// flush order.
  std::vector<std::uint64_t> batch_wall_ns;

  /// Deterministic JSON document: model-level fields only, byte-identical
  /// across engines for one seed.
  std::string json() const;
  /// Deterministic Markdown report (same determinism contract).
  std::string markdown() const;
  /// The session's `host` member, which `mcbsim serve --profile` adds to
  /// the document: sim_wall_ns (the sum of batch_wall_ns), batch_runs,
  /// batch_run_wall_ns quantiles, the last batch walls
  /// (recent_batch_wall_ns) and the frame counters. Outside the
  /// determinism contract; `mcbsim strip-host` removes it.
  std::string host_json() const;
};

/// Runs the whole session: dataset + stream from cfg.seed, one persistent
/// network, batched answering as above. Throws on model violations or (with
/// cfg.verify) any wrong answer.
ServeReport run_server(const ServeConfig& cfg);

}  // namespace mcb::serve
