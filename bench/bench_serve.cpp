// Serving-throughput benchmark: batched multi-rank answering vs
// one-query-at-a-time through the same persistent network.
//
// Both sides run serve::run_server over the identical query stream (pure
// rank-select traffic on the clustered tail-quantile menu — p50/p90/p95/
// p99/p999 of a resident n = 4p dataset). The only knob that differs is
// admission: batch <= 8 coalesces compatible rank queries into one
// algo::select_ranks_on run (the Nowicki-style batched filter, which
// shares the filtering prefix and the termination collection across every
// rank in the batch); batch = 1 answers each query with its own full
// selection run. The cost measure is the model's, not the host's:
// simulated cycles per answered query. Both sides must produce identical
// answers query-by-query — a batched server that answers faster by
// answering differently aborts the bench.
//
// Output: a per-grid-point table plus a machine-readable BENCH_serve.json
// (path overridable as argv[1]) with a `gates` array `mcbsim gates`
// understands.
//
// Gate: batched_vs_sequential — on the headline point (p=4096, k=64,
// n=16384) batching must cut cycles/query by >= 2x. The measured quantity
// is deterministic simulated time, which host shape cannot move, so the
// gate is enforced on every machine.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace mcb::bench {
namespace {

constexpr double kRequiredSpeedup = 2.0;

struct GridPoint {
  std::size_t p, k, n;
  std::size_t queries;
  bool headline = false;  // the gated point
};

struct Mode {
  const char* name;   // "sequential" | "batched"
  std::size_t batch;  // 1 | 8
};

struct ModeResult {
  serve::ServeReport rep;
  double cycles_per_query = 0.0;
};

ModeResult run_mode(const GridPoint& pt, const Mode& mode) {
  serve::ServeConfig sc;
  sc.sim.p = pt.p;
  sc.sim.k = pt.k;
  sc.sim.engine = Engine::kEventDriven;
  sc.n = pt.n;
  sc.seed = 42;
  sc.queries = pt.queries;
  sc.batch = mode.batch;
  // Pure rank traffic: every query is coalescible, so the comparison
  // isolates the batching policy (churn barriers would flush both sides
  // identically and only add noise).
  sc.classes = serve::parse_classes("rank:1");
  ModeResult r;
  r.rep = serve::run_server(sc);
  std::size_t answered = 0;
  for (const auto& q : r.rep.queries) {
    if (q.kind != serve::OpKind::kChurn) ++answered;
  }
  r.cycles_per_query =
      answered == 0 ? 0.0
                    : static_cast<double>(r.rep.total_cycles) /
                          static_cast<double>(answered);
  return r;
}

/// Both admission policies must answer the identical stream identically.
void check_same_answers(const GridPoint& pt, const ModeResult& seq,
                        const ModeResult& bat) {
  if (seq.rep.queries.size() != bat.rep.queries.size()) {
    std::cerr << "BENCH FAILURE: query streams diverged at p=" << pt.p
              << " (" << seq.rep.queries.size() << " vs "
              << bat.rep.queries.size() << " records)\n";
    std::abort();
  }
  for (std::size_t i = 0; i < seq.rep.queries.size(); ++i) {
    const auto& a = seq.rep.queries[i];
    const auto& b = bat.rep.queries[i];
    if (a.rank != b.rank || a.value != b.value) {
      std::cerr << "BENCH FAILURE: batched answer differs at query " << i
                << " p=" << pt.p << ": sequential (d=" << a.rank << ", "
                << a.value << ") vs batched (d=" << b.rank << ", " << b.value
                << ")\n";
      std::abort();
    }
  }
}

std::string json_run_row(const GridPoint& pt, const Mode& mode,
                         const ModeResult& r) {
  std::ostringstream os;
  os << "    {\"mode\": \"" << mode.name << "\", \"p\": " << pt.p
     << ", \"k\": " << pt.k << ", \"n\": " << pt.n
     << ", \"queries\": " << pt.queries << ", \"batch\": " << mode.batch
     << ", \"batches\": " << r.rep.batches
     << ", \"total_cycles\": " << r.rep.total_cycles
     << ", \"total_messages\": " << r.rep.total_messages
     << ", \"filter_phases\": " << r.rep.filter_phases
     << ", \"cycles_per_query\": " << util::json_double(r.cycles_per_query)
     << ", \"frame_allocs\": " << r.rep.frame_allocs << "}";
  return os.str();
}

}  // namespace
}  // namespace mcb::bench

int main(int argc, char** argv) {
  using namespace mcb;
  using namespace mcb::bench;

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  // The small point sanity-checks the comparison cheaply; the headline
  // point is the gate: p=4096 over k=64 channels, resident n = 4p, the
  // geometry where one filtering run amortized over a batch of tail
  // quantiles has to beat eight dedicated runs.
  const std::vector<GridPoint> grid = {
      {64, 8, 256, 24},
      {4096, 64, 16384, 24, /*headline=*/true},
  };
  const Mode kSequential{"sequential", 1};
  const Mode kBatched{"batched", 8};

  section("serving throughput: batched multi-rank admission vs one query "
          "per run");
  util::Table t;
  t.header({"p", "k", "n", "queries", "seq batches", "bat batches",
            "seq cyc/q", "bat cyc/q", "speedup"});
  double headline_speedup = 0.0;
  std::vector<std::string> rows_json;
  for (const auto& pt : grid) {
    const auto seq = run_mode(pt, kSequential);
    const auto bat = run_mode(pt, kBatched);
    check_same_answers(pt, seq, bat);
    const double speedup = bat.cycles_per_query == 0.0
                               ? 0.0
                               : seq.cycles_per_query / bat.cycles_per_query;
    if (pt.headline) headline_speedup = speedup;
    t.row({util::Table::num(pt.p), util::Table::num(pt.k),
           util::Table::num(pt.n), util::Table::num(pt.queries),
           util::Table::num(seq.rep.batches), util::Table::num(bat.rep.batches),
           util::Table::num(seq.cycles_per_query, 1),
           util::Table::num(bat.cycles_per_query, 1),
           util::Table::num(speedup, 2)});
    rows_json.push_back(json_run_row(pt, kSequential, seq));
    rows_json.push_back(json_run_row(pt, kBatched, bat));
  }
  std::cout << t;

  const bool passed = headline_speedup >= kRequiredSpeedup;

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot open " << json_path << " for writing\n";
    std::abort();
  }
  out << "{\n  \"benchmark\": \"serve\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows_json.size(); ++i) {
    out << rows_json[i] << (i + 1 < rows_json.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"gates\": [\n"
      << "    {\"name\": \"batched_vs_sequential\", \"p\": 4096, \"k\": 64, "
         "\"n\": 16384, \"required_speedup\": "
      << kRequiredSpeedup
      << ", \"measured\": " << util::json_double(headline_speedup)
      << ", \"enforced\": true, \"passed\": " << (passed ? "true" : "false")
      << "}\n"
      << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  std::cout << "serve p=4096 k=64 batched-vs-sequential cycles/query "
               "speedup: "
            << headline_speedup << "x (gate >= " << kRequiredSpeedup << ")\n";
  if (!passed) {
    std::cerr << "BENCH FAILURE: expected >= " << kRequiredSpeedup
              << "x cycles/query from batching at p=4096 k=64, measured "
              << headline_speedup << "x\n";
    return 1;
  }
  return 0;
}
