// E10 — baselines: who wins, by what factor, and where the crossovers are.
//
// (a) Columnsort vs the central gather-sort-scatter baseline as k grows:
//     central is flat in k, Columnsort improves ~k-fold.
// (b) Filtering selection vs selection-by-sorting as n grows: the message
//     gap widens like n / (p log(kn/p)); at tiny n the baseline is
//     competitive (the crossover).
#include "bench_common.hpp"

namespace {

using namespace mcb;

void sort_vs_central() {
  bench::section("E10a: Columnsort vs central baseline, n=32768, p=32");
  util::Table t;
  t.header({"k", "central cycles", "columnsort cycles", "speedup"});
  const std::size_t n = 32768, p = 32;
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto w = util::make_workload(n, p, util::Shape::kEven, 1);
    auto central = algo::central_sort({.p = p, .k = k}, w.inputs);
    auto cs = algo::columnsort_even({.p = p, .k = k}, w.inputs);
    bench::check_sorted(central.outputs);
    bench::check_sorted(cs.run.outputs);
    t.row({util::Table::num(k), util::Table::num(central.stats.cycles),
           util::Table::num(cs.run.stats.cycles),
           bench::ratio(double(central.stats.cycles),
                        double(cs.run.stats.cycles))});
  }
  std::cout << t << "\ncentral is ~flat in k; Columnsort gains ~k-fold — "
                    "the paper's core speedup.\n";
}

void selection_crossover() {
  bench::section("E10b: filtering vs selection-by-sorting, p=16, k=4 "
                 "(median)");
  util::Table t;
  t.header({"n", "sort-based msg", "filtering msg", "factor",
            "sort-based cyc", "filtering cyc", "factor"});
  for (std::size_t n : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    auto w = util::make_workload(n, 16, util::Shape::kEven, 2);
    const std::size_t d = (n + 1) / 2;
    auto by_sort = algo::selection_by_sorting({.p = 16, .k = 4}, w.inputs, d);
    auto filt = algo::select_rank({.p = 16, .k = 4}, w.inputs, d);
    if (by_sort.value != filt.value) {
      std::cerr << "BENCH FAILURE: selection mismatch\n";
      std::abort();
    }
    t.row({util::Table::num(n), util::Table::num(by_sort.stats.messages),
           util::Table::num(filt.stats.messages),
           bench::ratio(double(by_sort.stats.messages),
                        double(filt.stats.messages)),
           util::Table::num(by_sort.stats.cycles),
           util::Table::num(filt.stats.cycles),
           bench::ratio(double(by_sort.stats.cycles),
                        double(filt.stats.cycles))});
  }
  std::cout << t << "\nthe factor grows ~ n/log n: filtering wins "
                    "everywhere above trivial sizes and the gap widens.\n";
}

void single_channel_matchup() {
  bench::section("E10c: k=1 vs k=8 for the same problem (n=16384, p=32)");
  util::Table t;
  t.header({"config", "algorithm", "cycles", "messages"});
  auto w = util::make_workload(16384, 32, util::Shape::kEven, 3);
  auto k1 = algo::sort({.p = 32, .k = 1}, w.inputs);
  auto k8 = algo::sort({.p = 32, .k = 8}, w.inputs);
  t.row({util::Table::txt("MCB(32,1)"),
         util::Table::txt(algo::to_string(k1.used)),
         util::Table::num(k1.run.stats.cycles),
         util::Table::num(k1.run.stats.messages)});
  t.row({util::Table::txt("MCB(32,8)"),
         util::Table::txt(algo::to_string(k8.used)),
         util::Table::num(k8.run.stats.cycles),
         util::Table::num(k8.run.stats.messages)});
  std::cout << t;
}

}  // namespace

int main() {
  sort_vs_central();
  selection_crossover();
  single_channel_matchup();
  return 0;
}
