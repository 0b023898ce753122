#include "algo/uneven_sort.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "algo/columnsort_core.hpp"
#include "algo/common.hpp"
#include "algo/partial_sums.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// Deterministic replay of the group-formation rule, used by the caller to
/// presize the Columnsort core plan (each processor derives the identical
/// values in-run from the Partial-Sums results and the representatives'
/// broadcasts; building the tables is local computation and free in the
/// cycle measure).
struct Formation {
  std::size_t kk = 0;  ///< groups formed
  std::size_t m = 0;   ///< padded column length
};

/// The paper's Columnsort dimension guard, applied to the channel count:
/// groups are formed against the largest k' <= k with n >= k'^2 (k'-1), so
/// the padded column length stays O(n/k' + n_max) instead of blowing up to
/// kk(kk-1) when n is small relative to k.
std::size_t effective_k(std::size_t n, std::size_t k) {
  std::size_t best = 1;
  for (std::size_t kp = 2; kp <= k; ++kp) {
    if (n >= kp * kp * (kp - 1)) best = kp;
  }
  return best;
}

Formation plan_formation(const std::vector<std::size_t>& sizes,
                         std::size_t k_raw) {
  const std::size_t n =
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  const std::size_t k = effective_k(n, k_raw);
  const std::size_t n_max = *std::max_element(sizes.begin(), sizes.end());
  const std::size_t budget = ceil_div(n, k) + n_max - 1;

  Formation f;
  std::size_t assigned = 0;
  std::size_t prefix = 0;
  std::size_t max_group = 0;
  std::size_t i = 0;
  while (assigned < n) {
    // Greedily extend the group while the next processor still fits.
    std::size_t group = 0;
    while (i < sizes.size() && prefix + sizes[i] <= assigned + budget) {
      prefix += sizes[i];
      group += sizes[i];
      ++i;
    }
    MCB_CHECK(group > 0, "group formation stalled at processor " << i);
    assigned += group;
    max_group = std::max(max_group, group);
    ++f.kk;
  }
  MCB_CHECK(f.kk <= k, "formed " << f.kk << " groups with k=" << k);
  // Column length: the longest group, padded so kk | m and m >= kk(kk-1).
  f.m = std::max(round_up(max_group, f.kk), f.kk * (f.kk - 1));
  if (f.m == 0) f.m = 1;  // kk == 1, degenerate
  return f;
}

struct UnevenCtx {
  std::size_t k = 0;
  std::shared_ptr<const detail::CorePlan> plan;
};

ProcMain uneven_program(Proc& self, const UnevenCtx& ctx,
                        const std::vector<Word>& input,
                        std::vector<Word>& output) {
  const std::size_t i = self.id();
  const std::size_t p = self.p();
  const auto ni = static_cast<Word>(input.size());

  // Every sub-protocol runs in this one slot (Proc::StepAwaiter).
  StepSlot<PartialSums, Stream<Word>, detail::ColumnsortPhases,
           detail::Redistribute>
      sub;

  // --- phase 0a: learn the distribution and form groups --------------------
  if (i == 0) self.mark_phase("phase0a:form");
  sub.emplace<PartialSums>(
      self, ni, SumOp::add(),
      PartialSumsOptions{.with_total = true, .with_next = true});
  co_await sub;
  const PartialSumsResult ps = sub.get<PartialSums>().result();
  sub.emplace<PartialSums>(self, ni, SumOp::max(),
                           PartialSumsOptions{.with_total = true});
  co_await sub;
  const auto n_max =
      static_cast<std::size_t>(sub.get<PartialSums>().result().total);
  const auto n = static_cast<std::size_t>(ps.total);
  const std::size_t k_eff = effective_k(n, ctx.k);
  const std::size_t budget = ceil_div(n, k_eff) + n_max - 1;

  // One cycle per group: its representative announces the group size on
  // channel 0; everyone tracks the running total to decide membership.
  std::size_t assigned = 0;
  std::size_t my_group = SIZE_MAX;
  std::size_t my_offset = 0;  // within-group prefix of my elements
  std::size_t my_group_total = 0;
  bool is_rep = false;
  std::size_t kk = 0;
  while (assigned < n) {
    const bool joins =
        my_group == SIZE_MAX &&
        static_cast<std::size_t>(ps.self) <= assigned + budget;
    const bool announces =
        joins && (i == p - 1 ||
                  static_cast<std::size_t>(ps.next) > assigned + budget);
    auto cast = broadcast_word(
        self, announces,
        static_cast<Word>(static_cast<std::size_t>(ps.self) - assigned),
        "no representative announced a group");
    const auto group_total = static_cast<std::size_t>(co_await cast);
    if (joins) {
      my_group = kk;
      my_offset = static_cast<std::size_t>(ps.before) - assigned;
      my_group_total = group_total;
      is_rep = announces;
    }
    assigned += group_total;
    ++kk;
  }
  MCB_CHECK(my_group != SIZE_MAX, "P" << i + 1 << " joined no group");
  MCB_CHECK(kk == ctx.plan->kk,
            "in-run group count " << kk << " != planned " << ctx.plan->kk);
  const std::size_t m = ctx.plan->m;
  const auto gch = static_cast<ChannelId>(my_group);

  // --- phase 0b: collect each group's elements at its representative ------
  // Fixed window of m cycles for every group (m bounds every group total).
  // Messages are one word; the representative gathers the group's words in
  // `output`, which phase 10 overwrites, and builds its column from there.
  if (i == 0) self.mark_phase("phase0b:collect");
  std::vector<KV> column;
  if (!is_rep) {
    sub.emplace<Stream<Word>>(self, Slots<const Word>{input, my_offset, gch},
                              Slots<Word>{}, 0,
                              m - my_offset - input.size());
    co_await sub;
  } else {
    output.resize(my_group_total - input.size());
    sub.emplace<Stream<Word>>(self, Slots<const Word>{},
                              Slots<Word>{output, 0, gch}, 0,
                              m - output.size());
    co_await sub;
    output.insert(output.end(), input.begin(), input.end());
    column.reserve(m);
    for (Word w : output) column.push_back(KV{w, 0});
    column.resize(m, KV{kDummy, 0});
  }

  // --- phases 1-9 -----------------------------------------------------------
  if (i == 0) self.mark_phase("core:columnsort");
  if (is_rep) {
    sub.emplace<detail::ColumnsortPhases>(self, *ctx.plan, my_group, column);
    co_await sub;
  } else {
    co_await self.window(ctx.plan->core_cycles);
  }

  // --- phase 10: redistribute ------------------------------------------------
  if (i == 0) self.mark_phase("phase10:redistribute");
  std::vector<KV> segment;
  sub.emplace<detail::Redistribute>(
      self, *ctx.plan, is_rep, my_group, column, n,
      static_cast<std::size_t>(ps.before), static_cast<std::size_t>(ps.self),
      segment);
  co_await sub;
  output.clear();
  output.reserve(segment.size());
  for (const KV& e : segment) output.push_back(e.key);
}

}  // namespace

UnevenSortResult uneven_sort(const SimConfig& cfg,
                             const std::vector<std::vector<Word>>& inputs,
                             TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  std::vector<std::size_t> sizes(cfg.p);
  for (std::size_t i = 0; i < cfg.p; ++i) {
    MCB_REQUIRE(!inputs[i].empty(), "P" << i + 1 << " holds no elements "
                                        << "(the paper assumes n_i > 0)");
    sizes[i] = inputs[i].size();
    for (Word w : inputs[i]) {
      MCB_REQUIRE(w != kDummy, "input contains the reserved dummy value");
    }
  }

  const Formation f = plan_formation(sizes, cfg.k);
  UnevenCtx ctx;
  ctx.k = cfg.k;
  ctx.plan = detail::CorePlan::shared(f.m, f.kk);

  UnevenSortResult result;
  result.groups = f.kk;
  result.column_len = f.m;
  result.run = run_network(
      cfg, inputs,
      [&ctx](Proc& self, const std::vector<Word>& in,
             std::vector<Word>& out) {
        return uneven_program(self, ctx, in, out);
      },
      sink);
  return result;
}

}  // namespace mcb::algo
