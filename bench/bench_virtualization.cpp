// E11 — Section 2's simulation lemma: running MCB(p', k') on MCB(p, k).
//
// Prices real sorting runs on smaller hardware via the implemented
// subround schedule and compares the overhead factor against the paper's
// O((p'/p)(k'/k)) claim and our schedule's (p'/p)^2 (k'/k) (the extra
// factor pays for read scheduling; see mcb/virtualize.hpp).
#include "bench_common.hpp"
#include "mcb/virtualize.hpp"

namespace {

using namespace mcb;

void overhead_table() {
  bench::section("E11: virtualization overhead for a sort on MCB(64,16)");
  const SimConfig virt{.p = 64, .k = 16};
  auto w = util::make_workload(16384, 64, util::Shape::kEven, 1);
  auto res = algo::columnsort_even(virt, w.inputs);
  bench::check_sorted(res.run.outputs);
  std::cout << "virtual run: " << res.run.stats.cycles << " cycles, "
            << res.run.stats.messages << " messages\n";

  util::Table t;
  t.header({"real p", "real k", "h", "c", "real cycles", "overhead",
            "paper h*c", "ours h^2*c", "real messages"});
  for (auto [p, k] : std::vector<std::pair<std::size_t, std::size_t>>{
           {64, 16}, {64, 8}, {64, 4}, {32, 16}, {32, 8}, {16, 16},
           {16, 4}, {8, 8}}) {
    auto cost = virtualization_cost({.p = p, .k = k}, virt, res.run.stats);
    t.row({util::Table::num(p), util::Table::num(k),
           util::Table::num(cost.hosts), util::Table::num(cost.channel_mux),
           util::Table::num(cost.real_cycles),
           util::Table::num(cost.cycle_overhead(res.run.stats), 1),
           util::Table::num(cost.hosts * cost.channel_mux),
           util::Table::num(cost.hosts * cost.hosts * cost.channel_mux),
           util::Table::num(cost.real_messages)});
  }
  std::cout << t << "\nchannel-only virtualization (p'=p) matches the "
                    "paper's bound exactly; hosting h>1 virtual processors "
                    "costs an extra factor h for read scheduling.\n";
}

void executed_table() {
  bench::section("E11b: EXECUTED hosted runs (traffic replayed and verified "
                 "on the real network)");
  util::Table t;
  t.header({"virtual", "real", "h", "c", "virt cycles", "real cycles",
            "overhead", "virt msgs", "real msgs"});
  auto w = util::make_workload(256, 16, util::Shape::kEven, 5);
  for (auto [p, k] : std::vector<std::pair<std::size_t, std::size_t>>{
           {16, 4}, {16, 2}, {8, 4}, {8, 2}, {4, 4}, {4, 2}}) {
    std::vector<std::vector<Word>> outputs(16);
    auto res = run_virtualized(
        {.p = p, .k = k}, {.p = 16, .k = 4}, [&](Network& net) {
          static const auto plan = algo::EvenSortPlan::build(16, 4, 16);
          auto prog = [](Proc& self, const std::vector<Word>& in,
                         std::vector<Word>& out) -> ProcMain {
            std::vector<algo::KV> kv;
            for (Word v : in) kv.push_back(algo::KV{v, 0});
            co_await algo::columnsort_even_collective(self, plan, kv);
            out.clear();
            for (const auto& e : kv) out.push_back(e.key);
          };
          for (ProcId i = 0; i < 16; ++i) {
            net.install(i, prog(net.proc(i), w.inputs[i], outputs[i]));
          }
        });
    bench::check_sorted(outputs);
    t.row({util::Table::txt("MCB(16,4)"),
           util::Table::txt("MCB(" + std::to_string(p) + "," +
                            std::to_string(k) + ")"),
           util::Table::num(res.predicted.hosts),
           util::Table::num(res.predicted.channel_mux),
           util::Table::num(res.virtual_stats.cycles),
           util::Table::num(res.real_stats.cycles),
           util::Table::num(res.predicted.cycle_overhead(res.virtual_stats),
                            1),
           util::Table::num(res.virtual_stats.messages),
           util::Table::num(res.real_stats.messages)});
  }
  std::cout << t << "\nevery row really executed: each virtual message "
                    "crossed a real channel h times and every delivery was "
                    "verified against the virtual run.\n";
}

}  // namespace

int main() {
  overhead_table();
  executed_table();
  return 0;
}
