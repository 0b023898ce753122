// E4 — Section 6.2 / Corollary 5: recursive Columnsort in the small-n
// regime.
//
// When n < k^2(k-1) the flat algorithm is channel-starved (it can only use
// kk ~ n^{1/3} columns); the recursive algorithm keeps all k channels busy
// through segmented transformations. Tables: flat-vs-recursive cycles as n
// shrinks relative to k (the crossover), and the max_split ablation (the
// paper's "choice of s").
#include "bench_common.hpp"

namespace {

using namespace mcb;

void crossover_table() {
  bench::section("E4a: flat vs recursive at p = k = 64 (small-n regime)");
  util::Table t;
  t.header({"n", "flat kk", "flat cycles", "rec depth", "rec cycles",
            "rec/flat", "n/k"});
  const std::size_t p = 64, k = 64;
  for (std::size_t ni : {4u, 16u, 64u, 256u, 1024u}) {
    const std::size_t n = p * ni;
    auto w = util::make_workload(n, p, util::Shape::kEven, 1);
    auto flat = algo::columnsort_even({.p = p, .k = k}, w.inputs);
    auto rec = algo::recursive_columnsort({.p = p, .k = k}, w.inputs);
    bench::check_sorted(flat.run.outputs);
    bench::check_sorted(rec.run.outputs);
    t.row({util::Table::num(n), util::Table::num(flat.columns),
           util::Table::num(flat.run.stats.cycles),
           util::Table::num(rec.depth),
           util::Table::num(rec.run.stats.cycles),
           bench::ratio(double(rec.run.stats.cycles),
                        double(flat.run.stats.cycles)),
           util::Table::num(n / k)});
  }
  std::cout << t << "\nrec/flat < 1 marks where recursion wins (flat "
                    "channel-starved); > 1 where flat dimensions are "
                    "already comfortable.\n";
}

void ablation_table() {
  bench::section("E4b: max_split ablation (deeper recursion) at p=k=64, "
                 "n=16384");
  util::Table t;
  t.header({"max split", "top k'", "depth", "cycles", "messages",
            "cyc/(n/k)"});
  const std::size_t p = 64, k = 64, n = 16384;
  auto w = util::make_workload(n, p, util::Shape::kEven, 2);
  for (std::size_t cap : {2u, 4u, 8u, 16u, 32u, 64u}) {
    auto res = algo::recursive_columnsort({.p = p, .k = k}, w.inputs,
                                          {.max_split = cap});
    bench::check_sorted(res.run.outputs);
    t.row({util::Table::num(cap), util::Table::num(res.top_columns),
           util::Table::num(res.depth), util::Table::num(res.run.stats.cycles),
           util::Table::num(res.run.stats.messages),
           bench::ratio(double(res.run.stats.cycles),
                        double(n) / double(k))});
  }
  std::cout << t << "\nsmaller splits -> more levels -> the 4^s sorting "
                    "slots dominate; the greedy largest split minimizes "
                    "cycles.\n";
}

void scaling_table() {
  bench::section("E4c: recursive cycles track n/k as n grows (p = k = 64)");
  util::Table t;
  t.header({"n", "depth", "cycles", "n/k", "cyc/(4^depth * n/k)"});
  const std::size_t p = 64, k = 64;
  for (std::size_t ni : {16u, 64u, 256u, 1024u}) {
    const std::size_t n = p * ni;
    auto w = util::make_workload(n, p, util::Shape::kEven, 3);
    auto res = algo::recursive_columnsort({.p = p, .k = k}, w.inputs);
    bench::check_sorted(res.run.outputs);
    double slots = 1;
    for (std::size_t d = 0; d < res.depth; ++d) slots *= 4;
    t.row({util::Table::num(n), util::Table::num(res.depth),
           util::Table::num(res.run.stats.cycles), util::Table::num(n / k),
           bench::ratio(double(res.run.stats.cycles),
                        slots * double(n) / double(k))});
  }
  std::cout << t;
}

}  // namespace

int main() {
  crossover_table();
  ablation_table();
  scaling_table();
  return 0;
}
