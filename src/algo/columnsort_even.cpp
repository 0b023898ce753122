#include "algo/columnsort_even.hpp"

#include <utility>

#include "obs/span.hpp"
#include "seq/columnsort.hpp"
#include "util/check.hpp"

namespace mcb::algo {

std::size_t choose_columns(std::size_t n, std::size_t p, std::size_t k,
                           seq::ColumnsortVariant variant) {
  std::size_t best = 1;
  for (std::size_t kk = 1; kk <= k; ++kk) {
    if (p % kk != 0) continue;
    const std::size_t m = round_up(n / kk, kk);
    if (seq::columnsort_dims_ok(m, kk, variant)) best = kk;
  }
  return best;
}

EvenSortPlan EvenSortPlan::build(std::size_t p, std::size_t k, std::size_t ni,
                                 std::size_t columns,
                                 seq::ColumnsortVariant variant) {
  MCB_REQUIRE(p >= 1 && k >= 1 && k <= p, "p=" << p << " k=" << k);
  MCB_REQUIRE(ni > 0, "every processor needs at least one element");
  EvenSortPlan plan;
  plan.p = p;
  plan.n = p * ni;
  plan.ni = ni;
  plan.kk = columns != 0 ? columns : choose_columns(plan.n, p, k, variant);
  MCB_REQUIRE(plan.kk >= 1 && plan.kk <= k && p % plan.kk == 0,
              "column count " << plan.kk << " infeasible for p=" << p
                              << " k=" << k);
  plan.g = p / plan.kk;
  const std::size_t m = round_up(plan.n / plan.kk, plan.kk);
  plan.redistribute = !(plan.g == 1 && m == plan.ni);
  plan.core = detail::CorePlan::shared(m, plan.kk, variant);
  return plan;
}

Task<void> columnsort_even_collective(Proc& self, const EvenSortPlan& plan,
                                      std::vector<KV>& data) {
  MCB_REQUIRE(data.size() == plan.ni, "local list size " << data.size()
                                                         << " != plan ni="
                                                         << plan.ni);
  const std::size_t i = self.id();
  const std::size_t j = i / plan.g;        // group / column index
  const std::size_t idx = i % plan.g;      // index within the group
  const bool is_rep = idx == plan.g - 1;   // highest-numbered member
  const auto jch = static_cast<ChannelId>(j);
  const std::size_t m = plan.core->m;

  std::vector<KV> column;

  // Span names carry the "even." prefix so they never collide with the
  // phase names of whatever program hosts this collective (a phase mark is
  // a span too, and the recorder's summaries group spans by name).
  // --- phase 0: gather the group's elements at the representative ---------
  if (plan.g > 1) {
    obs::Span sp(self, "even.gather");
    const std::size_t gather_cycles = (plan.g - 1) * plan.ni;
    if (!is_rep) {
      // This member's ni writes, between the other members' windows.
      const std::size_t lead = idx * plan.ni;
      auto aw = self.window(lead, plan.ni, gather_cycles - lead - plan.ni,
                            [&data, jch](std::size_t t) {
                              return Beat{Message::of(data[t].key, data[t].val),
                                          jch};
                            });
      co_await aw;
    } else {
      column.reserve(m);
      column.resize(gather_cycles);
      auto aw = self.window(
          0, gather_cycles, 0,
          [jch](std::size_t) { return Beat{{}, kNoChannel, jch}; },
          [&column](std::size_t t, const Proc::ReadResult& got) {
            MCB_CHECK(got.has_value(), "gather slot " << t << " silent");
            column[t] = KV{(*got)[0], (*got)[1]};
          });
      co_await aw;
      column.insert(column.end(), data.begin(), data.end());
    }
  } else {
    column = data;
  }

  // --- phases 1-9: Columnsort over the representatives' columns -----------
  {
    obs::Span sp(self, "even.core");
    if (is_rep) {
      column.resize(m, KV{kDummy, 0});  // pad so kk | m
      co_await detail::columnsort_phases(self, *plan.core, j, column);
    } else {
      co_await self.window(plan.core->core_cycles);
    }
  }

  // --- phase 10: redistribute sorted segments ------------------------------
  if (!plan.redistribute) {
    data = std::move(column);
    co_return;
  }
  obs::Span sp(self, "even.redistribute");
  const std::size_t lo = i * plan.ni;  // this processor's final ranks
  co_await detail::redistribute(self, *plan.core, is_rep, j, column, plan.n,
                                lo, lo + plan.ni, data);
}

namespace {

ProcMain pairs_program(Proc& self, const EvenSortPlan& plan,
                       const std::vector<KV>& input,
                       std::vector<KV>& output) {
  output = input;
  if (self.id() == 0) self.mark_phase("even-columnsort");
  co_await columnsort_even_collective(self, plan, output);
}

ColumnsortPairsResult run_pairs(const SimConfig& cfg,
                                const std::vector<std::vector<KV>>& inputs,
                                ColumnsortEvenOptions opts, TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  const std::size_t ni = inputs.front().size();
  for (const auto& in : inputs) {
    MCB_REQUIRE(in.size() == ni, "distribution is not even");
    for (const KV& e : in) {
      MCB_REQUIRE(e.key != kDummy, "input contains the reserved dummy key");
    }
  }
  const auto plan =
      EvenSortPlan::build(cfg.p, cfg.k, ni, opts.columns, opts.variant);

  ColumnsortPairsResult result;
  result.columns = plan.kk;
  result.column_len = plan.core->m;
  result.outputs.resize(cfg.p);

  Network net(cfg, sink);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, pairs_program(net.proc(i), plan, inputs[i],
                                 result.outputs[i]));
  }
  result.stats = net.run();
  return result;
}

}  // namespace

ColumnsortPairsResult columnsort_even_pairs(
    const SimConfig& cfg, const std::vector<std::vector<KV>>& inputs,
    ColumnsortEvenOptions opts, TraceSink* sink) {
  return run_pairs(cfg, inputs, opts, sink);
}

ColumnsortEvenResult columnsort_even(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs,
    ColumnsortEvenOptions opts, TraceSink* sink) {
  std::vector<std::vector<KV>> kv_inputs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    kv_inputs[i].reserve(inputs[i].size());
    for (Word w : inputs[i]) kv_inputs[i].push_back(KV{w, 0});
  }
  auto pairs = run_pairs(cfg, kv_inputs, opts, sink);

  ColumnsortEvenResult result;
  result.columns = pairs.columns;
  result.column_len = pairs.column_len;
  result.run.stats = std::move(pairs.stats);
  result.run.outputs.resize(pairs.outputs.size());
  for (std::size_t i = 0; i < pairs.outputs.size(); ++i) {
    result.run.outputs[i].reserve(pairs.outputs[i].size());
    for (const KV& e : pairs.outputs[i]) {
      result.run.outputs[i].push_back(e.key);
    }
  }
  return result;
}

}  // namespace mcb::algo
