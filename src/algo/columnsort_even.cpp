#include "algo/columnsort_even.hpp"

#include <utility>

#include "mcb/network.hpp"
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

EvenSort::EvenSort(Proc& self, const EvenSortPlan& plan,
                   std::vector<KV>& data)
    : StepAwaiter(self),
      plan_(&plan),
      data_(&data),
      j_(self.id() / plan.g),
      idx_(self.id() % plan.g),
      is_rep_(idx_ == plan.g - 1) {}

// Span names carry the "even." prefix so they never collide with the phase
// names of whatever program hosts this collective (a phase mark is a span
// too, and the recorder's summaries group spans by name).
bool EvenSort::begin(Proc& self) {
  MCB_REQUIRE(data_->size() == plan_->ni, "local list size "
                                              << data_->size()
                                              << " != plan ni=" << plan_->ni);
  if (plan_->g == 1) {
    column_ = *data_;
    return core(self);
  }
  // --- phase 0: gather the group's elements at the representative ---------
  // Each member writes its ni pairs on the group's channel in turn; the
  // representative, last, sends nothing and reads them into its column.
  span_.open(self, "even.gather");
  const std::size_t ni = plan_->ni;
  const std::size_t gather_cycles = (plan_->g - 1) * ni;
  const std::size_t at = idx_ * ni;
  const auto jch = static_cast<ChannelId>(j_);
  std::span<const KV> mine = *data_;
  if (is_rep_) {
    mine = {};
    column_.reserve(plan_->core->m);
    column_.resize(gather_cycles);
  }
  return sub_
      .emplace<Stream<KV>>(self, Slots<const KV>{mine, at, jch},
                           Slots<KV>{column_, 0, jch}, 0,
                           is_rep_ ? 0 : gather_cycles - at - ni)
      .begin(self);
}

bool EvenSort::step(Proc& self) {
  switch (stage_) {
    case Stage::kGather:
      if (is_rep_) column_.insert(column_.end(), data_->begin(), data_->end());
      span_.close();
      return core(self);
    case Stage::kCore:
      if (is_rep_ && std::get<detail::ColumnsortPhases>(sub_).step(self)) {
        return true;
      }
      span_.close();
      return redistribute(self);
    case Stage::kRedistribute:
      break;
  }
  if (std::get<detail::Redistribute>(sub_).step(self)) return true;
  span_.close();
  return false;
}

// --- phases 1-9: Columnsort over the representatives' columns -------------
bool EvenSort::core(Proc& self) {
  stage_ = Stage::kCore;
  span_.open(self, "even.core");
  if (is_rep_) {
    column_.resize(plan_->core->m, KV{kDummy, 0});  // pad so kk | m
    if (sub_.emplace<detail::ColumnsortPhases>(self, *plan_->core, j_,
                                               column_)
            .begin(self)) {
      return true;
    }
  } else if (plan_->core->core_cycles > 0) {
    self.act_sleep(plan_->core->core_cycles);
    return true;
  }
  span_.close();
  return redistribute(self);
}

// --- phase 10: redistribute sorted segments --------------------------------
bool EvenSort::redistribute(Proc& self) {
  if (!plan_->redistribute) {
    *data_ = std::move(column_);
    return false;
  }
  stage_ = Stage::kRedistribute;
  span_.open(self, "even.redistribute");
  const std::size_t lo = self.id() * plan_->ni;  // final ranks
  return sub_.emplace<detail::Redistribute>(self, *plan_->core, is_rep_, j_,
                                            column_, plan_->n, lo,
                                            lo + plan_->ni, *data_)
      .begin(self);
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
