#include "algo/selection.hpp"

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

struct SelCtx {
  std::size_t threshold = 0;
  std::size_t d = 0;
  bool use_quickselect = false;
  EvenSortPlan pair_sort;  ///< one (median, count) pair per processor
};

/// What P_1 reports besides the answer: the filtering trace.
struct SelTrace {
  std::size_t phases = 0;
  std::vector<std::size_t> candidates;  ///< entering each filtering phase
};

/// P_1's side of the termination stream: writes its own survivors in
/// slots [lo, lo + |cands|) of the m, reads everyone else's, selects rank
/// d and broadcasts it.
Task<Word> select_at_root(Proc& self, const std::vector<Word>& cands,
                          std::size_t lo, std::size_t m, std::size_t d) {
  std::vector<Word> pool(m);
  auto aw = collect_window(self, cands, lo, pool);
  co_await aw;
  self.note_aux(pool.size());
  auto cast = broadcast_word(self, true, seq::kth_largest(pool, d), nullptr);
  co_return co_await cast;
}

/// The termination phase: prefix offsets give every processor a write
/// window on channel 0; P_1 appends its own survivors locally during its
/// window and reads everyone else's, then selects rank d and broadcasts
/// the answer. A subroutine, so its await sites stay out of the program's
/// frame for the filtering phases, and P_1's collector one of its own, so
/// the other processors' frames hold none of it.
Task<Word> collect_and_select(Proc& self, const std::vector<Word>& cands,
                              std::size_t d) {
  const auto ps = co_await partial_sums(
      self, static_cast<Word>(cands.size()), SumOp::add(),
      {.with_total = true});
  MCB_REQUIRE(d >= 1 && d <= static_cast<std::size_t>(ps.total),
              kDistinctValues << ": duplicate keys left rank " << d << " of "
                              << ps.total << " survivors");
  // Slots [before, self) of the total are this processor's.
  if (self.id() == 0) {
    co_return co_await select_at_root(self, cands,
                                      static_cast<std::size_t>(ps.before),
                                      static_cast<std::size_t>(ps.total), d);
  }
  // Sleep to the window, write it, sleep to the answer: one suspension
  // for the window and one for the answer.
  Cycle idle = static_cast<Cycle>(ps.before + (ps.total - ps.self));
  if (!cands.empty()) {
    auto aw = write_window(self, cands, static_cast<Cycle>(ps.before));
    co_await aw;
    idle = static_cast<Cycle>(ps.total - ps.self);
  }
  auto cast = broadcast_word(self, false, 0, "no answer broadcast", idle);
  co_return co_await cast;
}

/// One processor's selection. Only what crosses a phase lives in the
/// frame; `trace` is P_1's alone (nullptr elsewhere).
ProcMain selection_program(Proc& self, const SelCtx& ctx,
                           const std::vector<Word>& input, Word& answer,
                           SelTrace* trace) {
  util::Xoshiro256StarStar rng(0x5e1ec7 + self.id());
  std::vector<Word> cands = input;
  std::size_t d = ctx.d;  // rank within the remaining candidates
  bool done = false;

  // Learn the initial candidate count (every processor must know whether
  // filtering is needed at all). The span scope must close in the same
  // resumption in which the next mark_phase fires, so that the span and
  // the phase agree on their (cycle, messages) boundary stamps exactly.
  if (self.id() == 0) self.mark_phase("setup");
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
    if (self.id() == 0) self.mark_phase("filter");
    obs::Span sp(self, "filter");
    if (trace != nullptr) {
      ++trace->phases;
      trace->candidates.push_back(m_known);
    }

    // 1. local medians, 2. sorted descending by median.
    std::vector<KV> pair(
        1, filter::median_pair(cands, ctx.use_quickselect, rng));
    co_await columnsort_even_collective(self, ctx.pair_sort, pair);

    // 3. prefix counts over the sorted order; locate the weighted median.
    const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                          {.with_total = true});
    MCB_REQUIRE(static_cast<std::size_t>(ps.total) == m_known,
                kDistinctValues << ": duplicate keys made the candidate "
                                   "count drift ("
                                << ps.total << " vs " << m_known << ")");
    auto cast = filter::weighted_median_cast(self, ps, pair[0].key);
    const Word med_star = co_await cast;

    // 4. count candidates >= med_star network-wide.
    const auto gs = co_await partial_sums(
        self, filter::count_at_least(cands, med_star), SumOp::add(),
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
      m_known = static_cast<std::size_t>(ps.total) - m_s;
    }
  }

  // --- termination phase ----------------------------------------------------
  if (self.id() == 0) self.mark_phase("terminate");
  obs::Span sp_term(self, "terminate");
  if (!done) answer = co_await collect_and_select(self, cands, d);
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
  SelTrace trace;
  Network net(cfg, sink);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, selection_program(net.proc(i), ctx, inputs[i], answers[i],
                                     i == 0 ? &trace : nullptr));
  }
  SelectionResult result;
  result.stats = net.run();
  result.value = answers[0];
  result.filter_phases = trace.phases;
  result.candidates_per_phase = std::move(trace.candidates);
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
