// E12 — design-choice ablation: why the paper replaced Leighton's
// untranspose with un-diagonalize.
//
// Un-diagonalize only needs m >= k(k-1); untranspose needs m >= 2(k-1)^2 —
// nearly twice the column length per channel. For a fixed input that
// difference decides how many channels the sort can actually use, and with
// it the cycle count. The table quantifies the gap across n.
#include "bench_common.hpp"

namespace {

using namespace mcb;

void feasibility_table() {
  bench::section("E12a: feasible columns per variant (p=64, k=16)");
  util::Table t;
  t.header({"n", "kk undiagonalize", "kk untranspose", "dim bound undiag",
            "dim bound untrans"});
  for (std::size_t n : {512u, 1024u, 4096u, 16384u, 65536u}) {
    t.row({util::Table::num(n),
           util::Table::num(algo::choose_columns(
               n, 64, 16, seq::ColumnsortVariant::kUndiagonalize)),
           util::Table::num(algo::choose_columns(
               n, 64, 16, seq::ColumnsortVariant::kUntranspose)),
           util::Table::txt("m >= k(k-1)"),
           util::Table::txt("m >= 2(k-1)^2")});
  }
  std::cout << t;
}

void cycles_table() {
  bench::section("E12b: cycles per variant at p=64, k=16");
  util::Table t;
  t.header({"n", "undiag kk", "undiag cycles", "untrans kk",
            "untrans cycles", "untrans/undiag"});
  for (std::size_t ni : {16u, 64u, 256u, 1024u}) {
    const std::size_t n = 64 * ni;
    auto w = util::make_workload(n, 64, util::Shape::kEven, 1);
    auto ud = algo::columnsort_even(
        {.p = 64, .k = 16}, w.inputs,
        {.variant = seq::ColumnsortVariant::kUndiagonalize});
    auto ut = algo::columnsort_even(
        {.p = 64, .k = 16}, w.inputs,
        {.variant = seq::ColumnsortVariant::kUntranspose});
    bench::check_sorted(ud.run.outputs);
    bench::check_sorted(ut.run.outputs);
    t.row({util::Table::num(n), util::Table::num(ud.columns),
           util::Table::num(ud.run.stats.cycles),
           util::Table::num(ut.columns),
           util::Table::num(ut.run.stats.cycles),
           bench::ratio(double(ut.run.stats.cycles),
                        double(ud.run.stats.cycles))});
  }
  std::cout << t << "\nwherever the weaker dimension rule unlocks more "
                    "columns, the paper's variant wins proportionally.\n";
}

}  // namespace

int main() {
  feasibility_table();
  cycles_table();
  return 0;
}
