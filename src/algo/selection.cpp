#include "algo/selection.hpp"

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

struct SelCtx {
  std::size_t threshold = 0;
  std::size_t d = 0;
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

ProcMain selection_program(Proc& self, const SelCtx& ctx,
                           const std::vector<Word>& input, Word& answer,
                           std::size_t& phases_out,
                           std::vector<std::size_t>& phase_candidates) {
  const std::size_t i = self.id();
  util::Xoshiro256StarStar rng(0x5e1ec7 + i);

  std::vector<Word> cands = input;
  std::size_t d = ctx.d;  // rank within the remaining candidates
  std::size_t phases = 0;
  bool done = false;

  // Learn the initial candidate count (every processor must know whether
  // filtering is needed at all). The span scope must close in the same
  // resumption in which the next mark_phase fires, so that the span and
  // the phase agree on their (cycle, messages) boundary stamps exactly.
  if (i == 0) self.mark_phase("setup");
  std::size_t m_known = 0;
  {
    obs::Span sp(self, "setup");
    const auto init = co_await partial_sums(
        self, static_cast<Word>(cands.size()), SumOp::add(),
        {.with_total = true});
    m_known = static_cast<std::size_t>(init.total);
  }

  // --- filtering phases ----------------------------------------------------
  while (!done && m_known > ctx.threshold) {
    if (i == 0) self.mark_phase("filter");
    obs::Span sp(self, "filter");
    ++phases;
    phase_candidates.push_back(m_known);

    // 1. local medians; empty processors contribute the dummy pair, which
    //    sorts to the very end and carries count 0.
    std::vector<KV> pair(1);
    pair[0] = cands.empty()
                  ? KV{kDummy, 0}
                  : KV{local_median(cands, ctx.use_quickselect, rng),
                       static_cast<Word>(cands.size())};

    // 2. sort the pairs descending by median.
    co_await columnsort_even_collective(self, ctx.pair_sort, pair);

    // 3. prefix counts over the sorted order; locate the weighted median.
    const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                          {.with_total = true});
    const auto m = static_cast<std::size_t>(ps.total);
    MCB_REQUIRE(m == m_known, kDistinctValues
                                  << ": duplicate keys made the candidate "
                                     "count drift ("
                                  << m << " vs " << m_known << ")");
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
    for (Word w : cands) {
      if (w >= med_star) ++ge_local;
    }
    const auto gs = co_await partial_sums(self, ge_local, SumOp::add(),
                                          {.with_total = true});
    const auto m_s = static_cast<std::size_t>(gs.total);

    if (m_s == d) {  // case 1: found it
      answer = med_star;
      done = true;
    } else if (m_s > d) {  // case 2: answer is above med_star
      std::erase_if(cands, [med_star](Word w) { return w <= med_star; });
      m_known = m_s - 1;
    } else {  // case 3: answer is below med_star
      std::erase_if(cands, [med_star](Word w) { return w >= med_star; });
      d -= m_s;
      m_known = m - m_s;
    }
  }
  phases_out = phases;

  // --- termination phase ----------------------------------------------------
  if (i == 0) self.mark_phase("terminate");
  obs::Span sp_term(self, "terminate");
  if (!done) {
    // Prefix offsets give every processor a write window on channel 0;
    // P_1 appends its own survivors locally during its window and reads
    // everyone else's, then selects and broadcasts the answer.
    const auto ps = co_await partial_sums(
        self, static_cast<Word>(cands.size()), SumOp::add(),
        {.with_total = true});
    const auto m = static_cast<std::size_t>(ps.total);
    MCB_REQUIRE(d >= 1 && d <= m, kDistinctValues
                                      << ": duplicate keys left rank " << d
                                      << " of " << m << " survivors");
    const auto lo = static_cast<std::size_t>(ps.before);
    const auto hi = static_cast<std::size_t>(ps.self);
    if (i == 0) {
      std::vector<Word> pool(m);
      auto aw = collect_window(self, cands, lo, pool);
      co_await aw;
      self.note_aux(pool.size());
      answer = seq::kth_largest(pool, d);
      auto ans = self.write(0, Message::of(answer));
      co_await ans;
    } else {
      // Sleep to the window, write it, sleep to the answer: one suspension
      // for the window and one for the answer.
      Cycle idle = lo + (m - hi);
      if (!cands.empty()) {
        auto aw = write_window(self, cands, lo);
        co_await aw;
        idle = m - hi;
      }
      auto aw = self.cycle_after(idle, std::nullopt, ChannelId{0});
      const Proc::ReadResult got = co_await aw;
      MCB_CHECK(got.has_value(), "no answer broadcast");
      answer = got->at(0);
    }
  }
}

}  // namespace

SelectionResult select_rank(const SimConfig& cfg,
                            const std::vector<std::vector<Word>>& inputs,
                            std::size_t d, SelectionOptions opts,
                            TraceSink* sink) {
  cfg.validate();
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
  MCB_REQUIRE(1 <= d && d <= n, "rank " << d << " of " << n);

  SelCtx ctx;
  ctx.d = d;
  ctx.threshold = opts.threshold != 0
                      ? opts.threshold
                      : std::max<std::size_t>(cfg.p / cfg.k, 1);
  ctx.use_quickselect = opts.use_quickselect;
  ctx.pair_sort = EvenSortPlan::build(cfg.p, cfg.k, 1);

  std::vector<Word> answers(cfg.p, 0);
  std::vector<std::size_t> phases(cfg.p, 0);
  std::vector<std::vector<std::size_t>> cand_traces(cfg.p);
  Network net(cfg, sink);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, selection_program(net.proc(i), ctx, inputs[i], answers[i],
                                     phases[i], cand_traces[i]));
  }
  SelectionResult result;
  result.stats = net.run();
  result.value = answers[0];
  result.filter_phases = phases[0];
  result.candidates_per_phase = std::move(cand_traces[0]);
  for (std::size_t i = 1; i < cfg.p; ++i) {
    MCB_CHECK(answers[i] == answers[0], "P" << i + 1 << " disagrees");
  }
  return result;
}

SelectionResult select_median(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs,
                              SelectionOptions opts, TraceSink* sink) {
  std::size_t n = 0;
  for (const auto& in : inputs) n += in.size();
  return select_rank(cfg, inputs, (n + 1) / 2, opts, sink);
}

}  // namespace mcb::algo
