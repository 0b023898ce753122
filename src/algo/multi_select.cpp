#include "algo/multi_select.hpp"

#include <algorithm>
#include <utility>

#include "algo/columnsort_even.hpp"
#include "algo/common.hpp"
#include "algo/partial_sums.hpp"
#include "mcb/network.hpp"
#include "obs/span.hpp"
#include "seq/selection.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

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

/// Local median of the candidate list, by the paper's convention
/// N[ceil(m/2)]; reorders `cands` (harmless — candidate sets are unordered).
Word local_median(std::vector<Word>& cands, bool quick,
                  util::Xoshiro256StarStar& rng) {
  const std::size_t rank = (cands.size() + 1) / 2;
  if (quick) {
    return seq::kth_largest_quickselect(cands, rank, rng);
  }
  return seq::kth_largest(cands, rank);
}

ProcMain multi_selection_program(Proc& self, const MultiSelCtx& ctx,
                                 const std::vector<Word>& input,
                                 std::vector<Word>& answers,
                                 std::size_t& phases_out) {
  const std::size_t i = self.id();
  util::Xoshiro256StarStar rng(0x5e1ec7 + i);
  std::size_t phases = 0;

  // A segment is a value window of the input plus the ranks that fall in
  // it. `cands` is this processor's local slice; `ranks` and `m_known` are
  // identical at every processor, so the queue discipline below — continue
  // the upper half in place, stack the lower half — is in global lockstep.
  struct Seg {
    std::vector<Word> cands;
    std::vector<RankRef> ranks;  ///< ascending by d (splits preserve this)
    std::size_t m_known = 0;     ///< network-wide candidate count
  };

  // Census: every processor must know the initial candidate count. The span
  // scope must close in the same resumption in which the next mark_phase
  // fires, so span and phase agree on their boundary stamps exactly.
  if (i == 0) self.mark_phase("setup");
  std::size_t n_total = 0;
  {
    obs::Span sp(self, "setup");
    const auto init = co_await partial_sums(
        self, static_cast<Word>(input.size()), SumOp::add(),
        {.with_total = true});
    n_total = static_cast<std::size_t>(init.total);
  }

  std::vector<Seg> stack(1);
  stack[0].cands = input;
  stack[0].ranks.reserve(ctx.uds.size());
  for (std::size_t idx = 0; idx < ctx.uds.size(); ++idx) {
    stack[0].ranks.push_back(RankRef{ctx.uds[idx], idx});
  }
  stack[0].m_known = n_total;

  while (!stack.empty()) {
    Seg seg = std::move(stack.back());
    stack.pop_back();

    // --- filtering phases (Section 8, batched) ---------------------------
    while (!seg.ranks.empty() && seg.m_known > ctx.threshold) {
      if (i == 0) self.mark_phase("filter");
      obs::Span sp(self, "filter");
      ++phases;

      // 1. local medians; empty processors contribute the dummy pair,
      //    which sorts to the very end and carries count 0.
      std::vector<KV> pair(1);
      pair[0] = seg.cands.empty()
                    ? KV{kDummy, 0}
                    : KV{local_median(seg.cands, ctx.use_quickselect, rng),
                         static_cast<Word>(seg.cands.size())};

      // 2. sort the pairs descending by median.
      co_await columnsort_even_collective(self, ctx.pair_sort, pair);

      // 3. prefix counts over the sorted order; locate the weighted median.
      const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                            {.with_total = true});
      const auto m = static_cast<std::size_t>(ps.total);
      MCB_REQUIRE(m == seg.m_known, kDistinctValues
                                        << ": duplicate keys made the "
                                           "candidate count drift ("
                                        << m << " vs " << seg.m_known << ")");
      const std::size_t half = (m + 1) / 2;  // ceil(m/2)
      const bool am_star = static_cast<std::size_t>(ps.before) < half &&
                           half <= static_cast<std::size_t>(ps.self);
      Word med_star = 0;
      if (am_star) {
        med_star = pair[0].key;
        auto aw = self.write(0, Message::of(med_star));
        co_await aw;
      } else {
        auto aw = self.read(0);
        const Proc::ReadResult got = co_await aw;
        MCB_CHECK(got.has_value(), "no weighted-median broadcast");
        med_star = got->at(0);
      }

      // 4. count candidates >= med_star network-wide.
      Word ge_local = 0;
      for (Word w : seg.cands) {
        if (w >= med_star) ++ge_local;
      }
      const auto gs = co_await partial_sums(self, ge_local, SumOp::add(),
                                            {.with_total = true});
      const auto m_s = static_cast<std::size_t>(gs.total);

      // 5. route every rank: exactly m_s → answered here; below m_s → the
      //    window above med_star (m_s - 1 candidates); above m_s → the
      //    window below it (m - m_s candidates, ranks shifted by m_s).
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
        // The batch straddles the weighted median: split. The lower window
        // waits on the stack; filtering continues in the upper one.
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
    if (seg.ranks.empty()) continue;

    // --- termination: one collection answers the whole cluster -----------
    // Prefix offsets give every processor a write window on channel 0; P_1
    // appends its own survivors locally during its window and reads
    // everyone else's, then selects *all* of the segment's ranks from the
    // one pool and broadcasts them in rank order — |ranks| cycles total,
    // where B separate runs would pay B full collections.
    if (i == 0) self.mark_phase("terminate");
    obs::Span sp_term(self, "terminate");
    const auto ps = co_await partial_sums(
        self, static_cast<Word>(seg.cands.size()), SumOp::add(),
        {.with_total = true});
    const auto m = static_cast<std::size_t>(ps.total);
    const auto lo = static_cast<std::size_t>(ps.before);
    const auto hi = static_cast<std::size_t>(ps.self);
    if (i == 0) {
      std::vector<Word> pool(m);
      auto aw = collect_window(self, seg.cands, lo, pool);
      co_await aw;
      self.note_aux(pool.size());
      std::vector<Word> out(seg.ranks.size());
      for (std::size_t r = 0; r < out.size(); ++r) {
        const std::size_t d = seg.ranks[r].d;
        MCB_REQUIRE(d >= 1 && d <= m, kDistinctValues
                                          << ": duplicate keys left rank "
                                          << d << " of " << m
                                          << " survivors");
        out[r] = seq::kth_largest(pool, d);
        answers[seg.ranks[r].idx] = out[r];
      }
      auto ans = write_window(self, out, 0);
      co_await ans;
    } else {
      // Sleep to the window, write it, sleep to the answers and read them:
      // one suspension for the window and one for the answers.
      Cycle idle = lo + (m - hi);
      if (!seg.cands.empty()) {
        auto aw = write_window(self, seg.cands, lo);
        co_await aw;
        idle = m - hi;
      }
      std::vector<Word> got(seg.ranks.size());
      auto aw = read_window(self, idle, got);
      co_await aw;
      for (std::size_t r = 0; r < got.size(); ++r) {
        answers[seg.ranks[r].idx] = got[r];
      }
    }
  }
  phases_out = phases;
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
  std::vector<std::size_t> phases(cfg.p, 0);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, multi_selection_program(net.proc(i), ctx, inputs[i],
                                           answers[i], phases[i]));
  }
  MultiSelectionResult result;
  result.stats = net.run();
  result.filter_phases = phases[0];
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
