// E5 — Section 7.1: the Partial-Sums collective.
//
// Cycles must track p/k + log k and messages must track p across both
// sweeps. Run through the public collective on a real network.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace mcb;

RunStats run_ps(std::size_t p, std::size_t k) {
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self) -> ProcMain {
    co_await algo::partial_sums(self, static_cast<Word>(self.id() + 1),
                                algo::SumOp::add(),
                                {.with_total = true, .with_next = true});
  };
  for (ProcId i = 0; i < p; ++i) net.install(i, prog(net.proc(i)));
  return net.run();
}

void sweep_p() {
  bench::section("E5a: sweep p at k=8");
  util::Table t;
  t.header({"p", "cycles", "p/k + log2 k", "ratio", "messages", "msg/p"});
  for (std::size_t p : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    auto stats = run_ps(p, 8);
    const double pred = double(p) / 8.0 + std::log2(8.0);
    t.row({util::Table::num(p), util::Table::num(stats.cycles),
           util::Table::num(pred, 1),
           bench::ratio(double(stats.cycles), pred),
           util::Table::num(stats.messages),
           bench::ratio(double(stats.messages), double(p))});
  }
  std::cout << t;
}

void sweep_k() {
  bench::section("E5b: sweep k at p=512");
  util::Table t;
  t.header({"k", "cycles", "p/k + log2 k", "ratio", "messages", "msg/p"});
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    auto stats = run_ps(512, k);
    const double pred = 512.0 / double(k) + std::max(1.0, std::log2(double(k)));
    t.row({util::Table::num(k), util::Table::num(stats.cycles),
           util::Table::num(pred, 1),
           bench::ratio(double(stats.cycles), pred),
           util::Table::num(stats.messages),
           bench::ratio(double(stats.messages), 512.0)});
  }
  std::cout << t;
}

}  // namespace

int main() {
  sweep_p();
  sweep_k();
  return 0;
}
