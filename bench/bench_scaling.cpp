// E13 — simulator scaling: wall-clock throughput of the cycle-accurate
// simulation itself at the largest configurations the other experiments
// build on, plus the cycle-count invariances at scale. Not a paper claim —
// an engineering artifact documenting what the instrument can measure.
#include <chrono>

#include "bench_common.hpp"

namespace {

using namespace mcb;

// E13/E13b run their tuple-list grids through the sweep harness
// (Sweep::explicit_points — these grids are not cartesian products). One
// seed per point, so trial order == point order; per-trial sim_wall_ns
// telemetry feeds the throughput columns, and every trial self-verifies
// (descending permutation / true median) inside the harness. The pool also
// overlaps the points, which is most of this binary's wall-clock at the
// largest configurations.
void scaling_table() {
  bench::section("E13: simulator throughput (columnsort-even, via sweep "
                 "harness)");
  harness::Sweep sweep;
  for (auto [p, k, n] : std::vector<std::array<std::size_t, 3>>{
           {16, 4, 16384},
           {64, 8, 131072},
           {128, 16, 262144},
           {256, 16, 524288},
       }) {
    sweep.explicit_points.push_back(
        {.p = p, .k = k, .n = n, .shape = util::Shape::kEven,
         .algorithm = "columnsort"});
  }
  sweep.seeds = 1;
  auto run = harness::run_sweep(sweep);
  bench::check_sweep_ok(run);

  util::Table t;
  t.header({"p", "k", "n", "cycles", "messages", "wall ms",
            "sim cycles/s", "msgs/s"});
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& pt = run.specs[i].point;
    const auto& r = run.results[i];
    const double ms = double(r.sim_wall_ns) / 1e6;
    t.row({util::Table::num(pt.p), util::Table::num(pt.k),
           util::Table::num(pt.n), util::Table::num(r.cycles),
           util::Table::num(r.messages), util::Table::num(ms, 1),
           util::Table::num(double(r.cycles) / ms * 1000.0, 0),
           util::Table::num(double(r.messages) / ms * 1000.0, 0)});
  }
  std::cout << t;
  std::cout << run.results.size() << " trials on " << run.threads_used
            << " threads in " << double(run.wall_ns) / 1e6 << " ms\n";
}

void selection_scaling_table() {
  bench::section("E13b: selection at scale (p=256, k=16, via sweep harness)");
  harness::Sweep sweep;
  for (std::size_t n : {65536u, 262144u, 1048576u}) {
    sweep.explicit_points.push_back(
        {.p = 256, .k = 16, .n = n, .shape = util::Shape::kEven,
         .algorithm = "select"});
  }
  sweep.seeds = 1;
  auto run = harness::run_sweep(sweep);
  bench::check_sweep_ok(run);

  util::Table t;
  t.header({"n", "cycles", "messages", "wall ms"});
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& r = run.results[i];
    t.row({util::Table::num(run.specs[i].point.n), util::Table::num(r.cycles),
           util::Table::num(r.messages),
           util::Table::num(double(r.sim_wall_ns) / 1e6, 1)});
  }
  std::cout << t;
}

void partial_sums_scaling_table() {
  bench::section("E13c: Partial-Sums at scale (k=64)");
  util::Table t;
  t.header({"p", "cycles", "messages", "wall ms"});
  for (std::size_t p : {256u, 1024u, 4096u}) {
    Network net({.p = p, .k = 64});
    auto prog = [](Proc& self) -> ProcMain {
      co_await algo::partial_sums(self, static_cast<Word>(self.id()),
                                  algo::SumOp::add(), {.with_total = true});
    };
    for (ProcId i = 0; i < p; ++i) net.install(i, prog(net.proc(i)));
    const auto t0 = std::chrono::steady_clock::now();
    auto stats = net.run();
    const auto dt = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    t.row({util::Table::num(p), util::Table::num(stats.cycles),
           util::Table::num(stats.messages), util::Table::num(dt, 1)});
  }
  std::cout << t;
}

}  // namespace

int main() {
  scaling_table();
  selection_scaling_table();
  partial_sums_scaling_table();
  return 0;
}
