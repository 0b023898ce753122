// Distributed quantile queries: a sharded "database" of 16 nodes answers
// p50/p90/p99/p999 latency questions over 2 broadcast channels by running
// selection at the matching ranks — each query costs Theta(p log(kn/p))
// messages instead of shipping the shards anywhere.
//
//   $ ./topk_query
#include <iostream>

#include "mcb/mcb.hpp"
#include "serve/query.hpp"
#include "util/table.hpp"

int main() {
  using namespace mcb;

  const SimConfig cfg{.p = 16, .k = 2};
  const std::size_t n = 16384;

  // Latency-like values: a shuffled distinct population per shard.
  auto workload = util::make_workload(n, cfg.p, util::Shape::kRandom, 99);
  std::cout << "shards: " << cfg.p << ", rows: " << n << ", channels: "
            << cfg.k << "\n\n";

  struct Query {
    const char* name;
    double fraction;  // fraction of rows *above* the answer
  };
  const Query queries[] = {
      {"p50", 0.50}, {"p90", 0.10}, {"p99", 0.01}, {"p999", 0.001}};

  util::Table t;
  t.header({"quantile", "rank d", "value", "cycles", "messages"});
  for (const auto& q : queries) {
    // Nearest-rank with the ceil convention (serve::quantile_rank, i.e.
    // obs::nearest_rank): d = max(1, ceil(n * fraction)). Truncating
    // instead would answer rank 1638 for p90 over n=16384 — one element off
    // whenever n * fraction is not integral.
    const auto d = serve::quantile_rank(n, q.fraction);
    const auto res = algo::select_rank(cfg, workload.inputs, d);
    t.row({util::Table::txt(q.name),
           util::Table::num(d),
           util::Table::num(res.value),
           util::Table::num(res.stats.cycles),
           util::Table::num(res.stats.messages)});
  }
  std::cout << t << '\n'
            << "for scale: shipping all rows over one channel would cost "
            << n << "+ cycles per query\n";
  return 0;
}
