#include "algo/multi_select.hpp"

#include <algorithm>
#include <utility>

#include "algo/columnsort_even.hpp"
#include "algo/common.hpp"
#include "algo/filter.hpp"
#include "algo/partial_sums.hpp"
#include "mcb/network.hpp"
#include "obs/span.hpp"
#include "seq/selection.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// A rank the batch still owes an answer for, relative to the candidate set
/// of the segment that carries it. `d` shifts as elements above the segment
/// are purged; `idx` pins the slot in the answer array. Identical at every
/// processor — rank bookkeeping is pure arithmetic on globally known counts.
struct RankRef {
  std::size_t d;    ///< rank within the carrying segment (d-th largest)
  std::size_t idx;  ///< index into the unique-rank answer array
};

struct MultiSelCtx {
  std::size_t threshold = 0;
  std::vector<std::size_t> uds;  ///< requested ranks, unique and ascending
  bool use_quickselect = false;
  EvenSortPlan pair_sort;  ///< one (median, count) pair per processor
};

/// A segment is a value window of the input plus the ranks that fall in
/// it. `cands` is this processor's local slice; `ranks` and `m_known` are
/// identical at every processor, so the queue discipline of the program —
/// continue the upper half in place, stack the lower half — is in global
/// lockstep.
struct Seg {
  std::vector<Word> cands;
  std::vector<RankRef> ranks;  ///< ascending by d (splits preserve this)
  std::size_t m_known = 0;     ///< network-wide candidate count
};

/// Every requested rank, each pointing at its own answer slot.
std::vector<RankRef> all_ranks(const std::vector<std::size_t>& uds) {
  std::vector<RankRef> ranks;
  ranks.reserve(uds.size());
  for (std::size_t idx = 0; idx < uds.size(); ++idx) {
    ranks.push_back(RankRef{uds[idx], idx});
  }
  return ranks;
}

/// Step 5 of a filtering phase: routes every rank of `seg` against the
/// weighted median med_star, which m_s of the segment's m candidates are at
/// least. Exactly m_s → answered here; below m_s → the window above
/// med_star (m_s - 1 candidates); above m_s → the window below it (m - m_s
/// candidates, ranks shifted by m_s). A batch straddling med_star splits:
/// the lower window waits on `stack` and filtering continues in the upper
/// one.
void route_ranks(Seg& seg, Word med_star, std::size_t m, std::size_t m_s,
                 std::vector<Seg>& stack, std::vector<Word>& answers) {
  std::vector<RankRef> high, low;
  for (const RankRef& r : seg.ranks) {
    if (r.d == m_s) {
      answers[r.idx] = med_star;
    } else if (r.d < m_s) {
      high.push_back(r);
    } else {
      low.push_back(RankRef{r.d - m_s, r.idx});
    }
  }

  if (!high.empty() && !low.empty()) {
    Seg lower;
    lower.cands.reserve(seg.cands.size());
    for (Word w : seg.cands) {
      if (w < med_star) lower.cands.push_back(w);
    }
    lower.ranks = std::move(low);
    lower.m_known = m - m_s;
    stack.push_back(std::move(lower));
    std::erase_if(seg.cands, [med_star](Word w) { return w <= med_star; });
    seg.ranks = std::move(high);
    seg.m_known = m_s - 1;
  } else if (!high.empty()) {
    std::erase_if(seg.cands, [med_star](Word w) { return w <= med_star; });
    seg.ranks = std::move(high);
    seg.m_known = m_s - 1;
  } else if (!low.empty()) {
    std::erase_if(seg.cands, [med_star](Word w) { return w >= med_star; });
    seg.ranks = std::move(low);
    seg.m_known = m - m_s;
  } else {
    seg.ranks.clear();  // every rank hit med_star's position exactly
  }
}

/// P_1's side of a segment's termination stream: writes its own survivors
/// in slots [lo, lo + |cands|) of the m, reads everyone else's, selects
/// every rank of the segment from the one pool and broadcasts them in rank
/// order.
Task<void> select_ranks_at_root(Proc& self, const Seg& seg, std::size_t lo,
                                std::size_t m, std::vector<Word>& answers) {
  std::vector<Word> pool(m);
  auto aw = collect_window(self, seg.cands, lo, pool);
  co_await aw;
  self.note_aux(pool.size());
  std::vector<Word> out(seg.ranks.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::size_t d = seg.ranks[r].d;
    MCB_REQUIRE(d >= 1 && d <= m, kDistinctValues
                                      << ": duplicate keys left rank " << d
                                      << " of " << m << " survivors");
    out[r] = seq::kth_largest(pool, d);
    answers[seg.ranks[r].idx] = out[r];
  }
  auto ans = write_window(self, out, 0);
  co_await ans;
}

/// Termination of a segment: one collection answers the whole cluster.
/// Prefix offsets give every processor a write window on channel 0; P_1
/// appends its own survivors locally during its window and reads
/// everyone else's, then selects *all* of the segment's ranks from the
/// one pool and broadcasts them in rank order — |ranks| cycles total,
/// where B separate runs would pay B full collections. A subroutine, so
/// its await sites stay out of the program's frame, and P_1's collector
/// one of its own.
Task<void> collect_and_select_ranks(Proc& self, const Seg& seg,
                                    std::vector<Word>& answers) {
  const auto ps = co_await partial_sums(
      self, static_cast<Word>(seg.cands.size()), SumOp::add(),
      {.with_total = true});
  // Slots [before, self) of the total are this processor's.
  if (self.id() == 0) {
    co_await select_ranks_at_root(self, seg,
                                  static_cast<std::size_t>(ps.before),
                                  static_cast<std::size_t>(ps.total), answers);
    co_return;
  }
  // Sleep to the window, write it, sleep to the answers and read them:
  // one suspension for the window and one for the answers.
  Cycle idle = static_cast<Cycle>(ps.before + (ps.total - ps.self));
  if (!seg.cands.empty()) {
    auto aw = write_window(self, seg.cands, static_cast<Cycle>(ps.before));
    co_await aw;
    idle = static_cast<Cycle>(ps.total - ps.self);
  }
  std::vector<Word> got(seg.ranks.size());
  auto aw = read_window(self, idle, got);
  co_await aw;
  for (std::size_t r = 0; r < got.size(); ++r) {
    answers[seg.ranks[r].idx] = got[r];
  }
}

/// One processor's batched selection. Only what crosses a phase lives in
/// the frame; `phases` is P_1's alone (nullptr elsewhere).
ProcMain multi_selection_program(Proc& self, const MultiSelCtx& ctx,
                                 const std::vector<Word>& input,
                                 std::vector<Word>& answers,
                                 std::size_t* phases) {
  util::Xoshiro256StarStar rng(0x5e1ec7 + self.id());

  // Census: every processor must know the initial candidate count. The span
  // scope must close in the same resumption in which the next mark_phase
  // fires, so span and phase agree on their boundary stamps exactly.
  if (self.id() == 0) self.mark_phase("setup");
  std::vector<Seg> stack(1);
  {
    obs::Span sp(self, "setup");
    const auto init = co_await partial_sums(
        self, static_cast<Word>(input.size()), SumOp::add(),
        {.with_total = true});
    stack[0].m_known = static_cast<std::size_t>(init.total);
  }
  stack[0].cands = input;
  stack[0].ranks = all_ranks(ctx.uds);

  while (!stack.empty()) {
    Seg seg = std::move(stack.back());
    stack.pop_back();

    // --- filtering phases (Section 8, batched) ---------------------------
    while (!seg.ranks.empty() && seg.m_known > ctx.threshold) {
      if (self.id() == 0) self.mark_phase("filter");
      obs::Span sp(self, "filter");
      if (phases != nullptr) ++*phases;

      // 1. local medians, 2. sorted descending by median.
      std::vector<KV> pair(
          1, filter::median_pair(seg.cands, ctx.use_quickselect, rng));
      co_await columnsort_even_collective(self, ctx.pair_sort, pair);

      // 3. prefix counts over the sorted order; locate the weighted median.
      const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                            {.with_total = true});
      MCB_REQUIRE(static_cast<std::size_t>(ps.total) == seg.m_known,
                  kDistinctValues << ": duplicate keys made the candidate "
                                     "count drift ("
                                  << ps.total << " vs " << seg.m_known
                                  << ")");
      auto cast = filter::weighted_median_cast(self, ps, pair[0].key);
      const Word med_star = co_await cast;

      // 4. count candidates >= med_star network-wide.
      const auto gs = co_await partial_sums(
          self, filter::count_at_least(seg.cands, med_star), SumOp::add(),
          {.with_total = true});

      // 5. route every rank.
      route_ranks(seg, med_star, static_cast<std::size_t>(ps.total),
                  static_cast<std::size_t>(gs.total), stack, answers);
    }
    if (seg.ranks.empty()) continue;

    // --- termination: one collection answers the whole cluster -----------
    if (self.id() == 0) self.mark_phase("terminate");
    obs::Span sp_term(self, "terminate");
    co_await collect_and_select_ranks(self, seg, answers);
  }
}

}  // namespace

MultiSelectionResult select_ranks_on(
    Network& net, const std::vector<std::vector<Word>>& inputs,
    const std::vector<std::size_t>& ds, SelectionOptions opts) {
  const SimConfig& cfg = net.config();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  std::size_t n = 0;
  for (const auto& in : inputs) {
    MCB_REQUIRE(!in.empty(), "every processor needs at least one element");
    n += in.size();
    for (Word w : in) {
      MCB_REQUIRE(w != kDummy, "input contains the reserved dummy value");
    }
  }
  MCB_REQUIRE(!ds.empty(), "at least one rank to select");
  for (std::size_t d : ds) {
    MCB_REQUIRE(1 <= d && d <= n, "rank " << d << " of " << n);
  }

  MultiSelCtx ctx;
  ctx.uds = ds;
  std::sort(ctx.uds.begin(), ctx.uds.end());
  ctx.uds.erase(std::unique(ctx.uds.begin(), ctx.uds.end()), ctx.uds.end());
  ctx.threshold = opts.threshold != 0
                      ? opts.threshold
                      : std::max<std::size_t>(cfg.p / cfg.k, 1);
  ctx.use_quickselect = opts.use_quickselect;
  ctx.pair_sort = EvenSortPlan::build(cfg.p, cfg.k, 1);

  std::vector<std::vector<Word>> answers(cfg.p,
                                         std::vector<Word>(ctx.uds.size(), 0));
  std::size_t phases = 0;
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, multi_selection_program(net.proc(i), ctx, inputs[i],
                                           answers[i],
                                           i == 0 ? &phases : nullptr));
  }
  MultiSelectionResult result;
  result.stats = net.run();
  result.filter_phases = phases;
  for (std::size_t i = 1; i < cfg.p; ++i) {
    MCB_CHECK(answers[i] == answers[0], "P" << i + 1 << " disagrees");
  }
  result.values.reserve(ds.size());
  for (std::size_t d : ds) {
    const auto it = std::lower_bound(ctx.uds.begin(), ctx.uds.end(), d);
    result.values.push_back(
        answers[0][static_cast<std::size_t>(it - ctx.uds.begin())]);
  }
  return result;
}

MultiSelectionResult select_ranks(const SimConfig& cfg,
                                  const std::vector<std::vector<Word>>& inputs,
                                  const std::vector<std::size_t>& ds,
                                  SelectionOptions opts, TraceSink* sink) {
  cfg.validate();
  Network net(cfg, sink);
  return select_ranks_on(net, inputs, ds, opts);
}

}  // namespace mcb::algo
