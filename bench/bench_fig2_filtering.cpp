// E8 — Figure 2: anatomy of the filtering phase.
//
// Prints the candidate population entering every filtering phase of one
// selection run — the quantity Figure 2 illustrates — and checks the >= 1/4
// purge guarantee per phase, plus the geometric-decay fit across runs.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace mcb;

void phase_trace() {
  bench::section("E8a: candidates entering each filtering phase "
                 "(n=65536, p=32, k=4, median)");
  auto w = util::make_workload(65536, 32, util::Shape::kEven, 11);
  auto res = algo::select_median({.p = 32, .k = 4}, w.inputs);
  util::Table t;
  t.header({"phase", "candidates", "kept vs previous", "<= 3/4 ?"});
  for (std::size_t ph = 0; ph < res.candidates_per_phase.size(); ++ph) {
    const auto c = res.candidates_per_phase[ph];
    if (ph == 0) {
      t.row({util::Table::num(ph + 1), util::Table::num(c),
             util::Table::txt("-"), util::Table::txt("-")});
    } else {
      const double kept = double(c) / double(res.candidates_per_phase[ph - 1]);
      t.row({util::Table::num(ph + 1), util::Table::num(c),
             util::Table::num(kept, 3),
             util::Table::txt(kept <= 0.76 ? "yes" : "NO")});
    }
  }
  std::cout << t << "\n(the paper's guarantee: at least ~1/4 of the "
                    "candidates are purged per phase)\n";
}

void decay_fit() {
  bench::section("E8b: phase count vs log(kn/p) across sizes (p=32, k=4)");
  util::Table t;
  t.header({"n", "phases", "log2(kn/p)", "phases/log", "worst kept"});
  for (std::size_t n : {2048u, 8192u, 32768u, 131072u}) {
    auto w = util::make_workload(n, 32, util::Shape::kEven, n);
    auto res = algo::select_median({.p = 32, .k = 4}, w.inputs);
    double worst = 0;
    for (std::size_t ph = 1; ph < res.candidates_per_phase.size(); ++ph) {
      worst = std::max(worst, double(res.candidates_per_phase[ph]) /
                                  double(res.candidates_per_phase[ph - 1]));
    }
    const double logterm = std::log2(4.0 * double(n) / 32.0);
    t.row({util::Table::num(n), util::Table::num(res.filter_phases),
           util::Table::num(logterm, 1),
           bench::ratio(double(res.filter_phases), logterm),
           util::Table::num(worst, 3)});
  }
  std::cout << t;
}

}  // namespace

int main() {
  phase_trace();
  decay_fit();
  return 0;
}
