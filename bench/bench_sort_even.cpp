// E2 — Corollaries 3/5: even-distribution sorting.
//
// Tables: (a) messages vs n at fixed (p, k) — the Theta(n) claim; (b)
// cycles vs n/k sweeping k at fixed n — the Theta(n/k) claim; both ratios
// must be ~flat. Plus simulator wall-clock throughput.
#include "bench_common.hpp"

namespace {

using namespace mcb;

void sweep_n() {
  // The n-axis grid runs through the parallel sweep harness: 3 seeds per
  // point, every trial self-verified (descending permutation of its input),
  // cross-seed min/mean/max reported. The Theta claims must hold at every
  // seed, so flat mean ratios with tight min..max spans are the pass
  // criterion.
  bench::section(
      "E2a: sweep n at p=64, k=8, 3 seeds via sweep harness (expect flat "
      "ratios)");
  const std::size_t p = 64, k = 8;
  harness::Sweep sweep;
  sweep.ps = {p};
  sweep.ks = {k};
  sweep.ns = {4096, 8192, 16384, 32768, 65536, 131072};
  sweep.shapes = {util::Shape::kEven};
  sweep.algorithms = {"columnsort"};
  sweep.seeds = 3;
  auto run = harness::run_sweep(sweep);
  bench::check_sweep_ok(run);

  util::Table t;
  t.header({"n", "cyc mean", "cyc span", "cyc/(n/k)", "msg mean", "msg span",
            "msg/n"});
  for (const auto& agg : run.aggregates) {
    const auto n = agg.point.n;
    t.row({util::Table::num(n), util::Table::num(agg.cycles.mean, 1),
           util::Table::txt(std::to_string(std::size_t(agg.cycles.min)) +
                            ".." + std::to_string(std::size_t(agg.cycles.max))),
           bench::ratio(agg.cycles.mean, double(n) / double(k)),
           util::Table::num(agg.messages.mean, 1),
           util::Table::txt(std::to_string(std::size_t(agg.messages.min)) +
                            ".." +
                            std::to_string(std::size_t(agg.messages.max))),
           bench::ratio(agg.messages.mean, double(n))});
  }
  std::cout << t;
  std::cout << run.results.size() << " trials on " << run.threads_used
            << " threads in " << double(run.wall_ns) / 1e6 << " ms\n";
}

void sweep_k() {
  bench::section("E2b: sweep k at n=65536, p=64 (cycles ~ n/k)");
  util::Table t;
  t.header({"k", "columns", "cycles", "n/kk", "cyc/(n/kk)", "messages",
            "msg/n"});
  const std::size_t n = 65536, p = 64;
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    auto w = util::make_workload(n, p, util::Shape::kEven, 2);
    auto res = algo::columnsort_even({.p = p, .k = k}, w.inputs);
    bench::check_sorted(res.run.outputs, w.inputs);
    t.row({util::Table::num(k), util::Table::num(res.columns),
           util::Table::num(res.run.stats.cycles),
           util::Table::num(n / res.columns),
           bench::ratio(double(res.run.stats.cycles),
                        double(n) / double(res.columns)),
           util::Table::num(res.run.stats.messages),
           bench::ratio(double(res.run.stats.messages), double(n))});
  }
  std::cout << t;
}

void phase_breakdown() {
  bench::section("E2c: phase breakdown at n=65536, p=64, k=8");
  auto w = util::make_workload(65536, 64, util::Shape::kEven, 3);
  auto res = algo::columnsort_even({.p = 64, .k = 8}, w.inputs);
  util::Table t;
  t.header({"phase", "cycles", "messages"});
  for (const auto& ph : res.run.stats.phases) {
    t.row({util::Table::txt(ph.name), util::Table::num(ph.cycles),
           util::Table::num(ph.messages)});
  }
  std::cout << t;
}

}  // namespace

int main() {
  sweep_n();
  sweep_k();
  phase_breakdown();
  return 0;
}
