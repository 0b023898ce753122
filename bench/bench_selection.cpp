// E7 — Section 8 / Corollary 7: selection.
//
// Messages must track p*log2(kn/p) and cycles (p/k)*log2(kn/p); the number
// of filtering phases tracks log(kn/p) via the >= 1/4 purge guarantee.
// Sweeps n, p and the rank d.
#include <cmath>

#include "bench_common.hpp"
#include "theory/bounds.hpp"

namespace {

using namespace mcb;

// E7a/E7b run through the parallel sweep harness: each point is repeated
// over 3 seeds, every trial self-verifies its answer against the true
// median, and the tables report cross-seed means with min..max spans next
// to the Theta-term ratios. The harness computes the same
// selection_cycles_term / selection_messages_term predictions internally.
void print_selection_aggregates(const harness::SweepRun& run,
                                const char* axis,
                                std::size_t harness::GridPoint::* field) {
  util::Table t;
  t.header({axis, "cyc mean", "cyc span", "cyc/pred", "msg mean", "msg span",
            "msg/pred"});
  for (const auto& agg : run.aggregates) {
    t.row({util::Table::num(agg.point.*field),
           util::Table::num(agg.cycles.mean, 1),
           util::Table::txt(std::to_string(std::size_t(agg.cycles.min)) +
                            ".." + std::to_string(std::size_t(agg.cycles.max))),
           util::Table::num(agg.cycles_vs_predicted, 2),
           util::Table::num(agg.messages.mean, 1),
           util::Table::txt(std::to_string(std::size_t(agg.messages.min)) +
                            ".." +
                            std::to_string(std::size_t(agg.messages.max))),
           util::Table::num(agg.messages_vs_predicted, 2)});
  }
  std::cout << t;
  std::cout << run.results.size() << " trials on " << run.threads_used
            << " threads in " << double(run.wall_ns) / 1e6 << " ms\n";
}

void sweep_n() {
  bench::section(
      "E7a: sweep n at p=32, k=4 (median), 3 seeds via sweep harness");
  harness::Sweep sweep;
  sweep.ps = {32};
  sweep.ks = {4};
  sweep.ns = {1024, 4096, 16384, 65536, 262144};
  sweep.shapes = {util::Shape::kEven};
  sweep.algorithms = {"select"};
  sweep.seeds = 3;
  auto run = harness::run_sweep(sweep);
  bench::check_sweep_ok(run);
  print_selection_aggregates(run, "n", &harness::GridPoint::n);
}

void sweep_p() {
  bench::section(
      "E7b: sweep p at k=4, n=65536 (median), 3 seeds via sweep harness");
  harness::Sweep sweep;
  sweep.ps = {8, 16, 32, 64, 128, 256};
  sweep.ks = {4};
  sweep.ns = {65536};
  sweep.shapes = {util::Shape::kEven};
  sweep.algorithms = {"select"};
  sweep.seeds = 3;
  auto run = harness::run_sweep(sweep);
  bench::check_sweep_ok(run);
  print_selection_aggregates(run, "p", &harness::GridPoint::p);
}

void sweep_rank() {
  bench::section("E7c: sweep rank d at p=32, k=4, n=65536");
  util::Table t;
  t.header({"d", "value rank", "phases", "cycles", "messages"});
  const std::size_t p = 32, k = 4, n = 65536;
  auto w = util::make_workload(n, p, util::Shape::kEven, 3);
  for (std::size_t d : {std::size_t{1}, n / 100, n / 10, n / 4, n / 2,
                        3 * n / 4, n}) {
    auto res = algo::select_rank({.p = p, .k = k}, w.inputs, d);
    t.row({util::Table::num(d),
           util::Table::txt(d == 1 ? "max" : (d == n ? "min" : "interior")),
           util::Table::num(res.filter_phases),
           util::Table::num(res.stats.cycles),
           util::Table::num(res.stats.messages)});
  }
  std::cout << t;
}

void sweep_skew() {
  bench::section("E7d: selection under skewed distributions, p=32, k=4, "
                 "n=32768");
  util::Table t;
  t.header({"distribution", "n_max", "phases", "cycles", "messages"});
  for (auto shape : {util::Shape::kEven, util::Shape::kZipf,
                     util::Shape::kOneHot}) {
    auto w = util::make_workload(32768, 32, shape, 5);
    auto res = algo::select_median({.p = 32, .k = 4}, w.inputs);
    t.row({util::Table::txt(util::to_string(shape)),
           util::Table::num(w.max_local()),
           util::Table::num(res.filter_phases),
           util::Table::num(res.stats.cycles),
           util::Table::num(res.stats.messages)});
  }
  std::cout << t;
}

}  // namespace

int main() {
  sweep_n();
  sweep_p();
  sweep_rank();
  sweep_skew();
  return 0;
}
