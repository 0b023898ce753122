// E6 — Section 7.2 / Corollary 6: uneven-distribution sorting.
//
// Sweeps the skew n_max/n from even to one-holder; cycles must track
// max(n/k, n_max) and messages Theta(n) throughout.
#include "bench_common.hpp"

namespace {

using namespace mcb;

void skew_sweep() {
  bench::section("E6a: skew sweep at n=32768, p=32, k=8");
  util::Table t;
  t.header({"distribution", "n_max", "groups", "cycles", "max(n/k,n_max)",
            "ratio", "messages", "msg/n"});
  const std::size_t n = 32768, p = 32, k = 8;
  for (auto shape : {util::Shape::kEven, util::Shape::kRandom,
                     util::Shape::kStaircase, util::Shape::kZipf,
                     util::Shape::kOneHot}) {
    auto w = util::make_workload(n, p, shape, 7);
    auto res = algo::uneven_sort({.p = p, .k = k}, w.inputs);
    bench::check_sorted(res.run.outputs);
    const double pred = double(std::max(n / k, w.max_local()));
    t.row({util::Table::txt(util::to_string(shape)),
           util::Table::num(w.max_local()), util::Table::num(res.groups),
           util::Table::num(res.run.stats.cycles), util::Table::num(pred, 0),
           bench::ratio(double(res.run.stats.cycles), pred),
           util::Table::num(res.run.stats.messages),
           bench::ratio(double(res.run.stats.messages), double(n))});
  }
  std::cout << t;
}

void n_sweep() {
  bench::section("E6b: sweep n under zipf skew, p=32, k=8");
  util::Table t;
  t.header({"n", "n_max", "cycles", "max(n/k,n_max)", "ratio", "messages",
            "msg/n"});
  for (std::size_t n : {4096u, 8192u, 16384u, 32768u, 65536u}) {
    auto w = util::make_workload(n, 32, util::Shape::kZipf, 3);
    auto res = algo::uneven_sort({.p = 32, .k = 8}, w.inputs);
    bench::check_sorted(res.run.outputs);
    const double pred = double(std::max(n / 8, w.max_local()));
    t.row({util::Table::num(n), util::Table::num(w.max_local()),
           util::Table::num(res.run.stats.cycles), util::Table::num(pred, 0),
           bench::ratio(double(res.run.stats.cycles), pred),
           util::Table::num(res.run.stats.messages),
           bench::ratio(double(res.run.stats.messages), double(n))});
  }
  std::cout << t;
}

}  // namespace

int main() {
  skew_sweep();
  n_sweep();
  return 0;
}
