// E9 — Theorems 1-5: lower bounds vs measured costs.
//
// For sorting: run the real algorithms on the Theorem 3 / Theorem 5 hard
// instances and report measured/lower-bound ratios (all must be >= 1 and
// O(1), demonstrating Theta-tightness). For selection: the adversary game
// of Theorem 1 played against the optimal exposure strategy, and the real
// algorithm's message count against the Omega formula.
#include "bench_common.hpp"
#include "theory/adversary.hpp"
#include "theory/bounds.hpp"

namespace {

using namespace mcb;

void sorting_bounds() {
  bench::section("E9a: sorting on the Theorem 3 hard instance (p=32, k=8)");
  util::Table t;
  t.header({"n", "lower bound msg", "measured msg", "ratio", "lower cyc",
            "measured cyc", "ratio"});
  for (std::size_t n : {4096u, 16384u, 65536u}) {
    std::vector<std::size_t> sizes(32, n / 32);
    auto inputs = theory::hard_sort_instance(sizes);
    auto res = algo::sort({.p = 32, .k = 8}, inputs);
    bench::check_sorted(res.run.outputs);
    const double lb_msg = theory::sorting_messages_lower(sizes);
    const double lb_cyc = theory::sorting_cycles_lower(sizes, 8);
    t.row({util::Table::num(n), util::Table::num(lb_msg, 0),
           util::Table::num(res.run.stats.messages),
           bench::ratio(double(res.run.stats.messages), lb_msg),
           util::Table::num(lb_cyc, 0),
           util::Table::num(res.run.stats.cycles),
           bench::ratio(double(res.run.stats.cycles), lb_cyc)});
  }
  std::cout << t;
}

void pmax_bound() {
  bench::section("E9b: Theorem 5 instance — P_max serializes (p=16, k=8)");
  util::Table t;
  t.header({"n_max", "lower cyc (n_max)", "measured cyc", "ratio"});
  for (std::size_t half : {512u, 2048u, 8192u}) {
    auto inputs = theory::hard_sort_instance_pmax(half, 16);
    auto res = algo::sort({.p = 16, .k = 8}, inputs);
    bench::check_sorted(res.run.outputs);
    t.row({util::Table::num(half), util::Table::num(half),
           util::Table::num(res.run.stats.cycles),
           bench::ratio(double(res.run.stats.cycles), double(half))});
  }
  std::cout << t << "\neven with 8 channels, cycles scale with n_max — the "
                    "Theorem 5 wall.\n";
}

void adversary_game() {
  bench::section("E9c: Theorem 1 adversary game (optimal exposures)");
  util::Table t;
  t.header({"p", "n_i", "Omega bound", "game messages", "ratio"});
  for (auto [p, ni] : std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 64}, {16, 256}, {32, 1024}, {64, 4096}}) {
    std::vector<std::size_t> sizes(p, ni);
    theory::SelectionAdversary adv(sizes);
    const double bound = theory::selection_messages_lower(sizes);
    std::size_t guard = 0;
    while (adv.total_candidates() > 2 && ++guard < 1000000) {
      for (std::size_t proc = 0; proc < p; ++proc) {
        if (adv.total_candidates() <= 2) break;
        const std::size_t c = adv.candidates(proc);
        if (c > 0) adv.expose(proc, (c + 1) / 2);
      }
    }
    t.row({util::Table::num(p), util::Table::num(ni),
           util::Table::num(bound, 0), util::Table::num(adv.messages()),
           bench::ratio(double(adv.messages()), bound)});
  }
  std::cout << t;
}

void selection_vs_bound() {
  bench::section("E9d: real selection vs the Omega message bound (k=4)");
  util::Table t;
  t.header({"p", "n", "Omega bound", "measured msg", "ratio"});
  for (auto [p, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 4096}, {16, 16384}, {32, 65536}, {64, 65536}}) {
    std::vector<std::size_t> sizes(p, n / p);
    auto w = util::make_workload(n, p, util::Shape::kEven, 9);
    auto res = algo::select_median({.p = p, .k = 4}, w.inputs);
    const double bound = theory::selection_messages_lower(sizes);
    t.row({util::Table::num(p), util::Table::num(n),
           util::Table::num(bound, 0), util::Table::num(res.stats.messages),
           bench::ratio(double(res.stats.messages), bound)});
  }
  std::cout << t << "\nratios stay bounded: the upper bound meets the lower "
                    "bound up to constants (Theta-tight).\n";
}

}  // namespace

int main() {
  sorting_bounds();
  pmax_bound();
  adversary_game();
  selection_vs_bound();
  return 0;
}
