// The one selection protocol behind select_rank, select_median,
// select_ranks and select_ranks_on: Section 8's filtering, generalized to a
// batch of ranks (algo/multi_select.hpp); a batch of one rank is exactly
// Section 8.
#include "algo/selection.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "algo/columnsort_even.hpp"
#include "algo/common.hpp"
#include "algo/multi_select.hpp"
#include "algo/partial_sums.hpp"
#include "mcb/network.hpp"
#include "seq/selection.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

struct SelectionPlan {
  std::size_t threshold = 0;
  std::vector<std::size_t> uds;  ///< requested ranks, unique and ascending
  EvenSortPlan pair_sort;        ///< one (median, count) pair per processor
};

/// What P_1 reports besides the answers: the filtering trace.
struct SelTrace {
  std::size_t phases = 0;
  std::vector<std::size_t> candidates;  ///< entering each filtering phase
};

/// A segment is a value window of the input plus the ranks that fall in
/// it: uds[lo, hi), rank j being the (uds[j] - off)-th largest of the
/// window's m candidates. `cands` is this processor's slice; the rest is
/// identical at every processor, so the order in which segments are
/// processed — continue the upper window in place, stack the lower one —
/// is in global lockstep.
struct Seg {
  std::vector<Word> cands;
  std::size_t lo = 0, hi = 0;  ///< the segment's ranks, uds[lo, hi)
  std::size_t off = 0;         ///< candidates purged above the window
  std::size_t m = 0;           ///< network-wide candidate count
};

// The local steps of a filtering phase are plain functions, so that the
// program keeps their temporaries out of its coroutine frame: GCC 12 gives
// every local of a coroutine body a frame slot of its own for the frame's
// whole life, loop counters and range-for iterators included
// (docs/ENGINE.md, "Memory model").

/// Step 1: this processor's (median, count) pair, the median by the
/// paper's convention N[ceil(m/2)] (reorders `cands`, which are unordered
/// anyway). An empty processor contributes the dummy pair, which sorts to
/// the very end and carries count 0.
KV median_pair(std::vector<Word>& cands) {
  if (cands.empty()) return KV{kDummy, 0};
  return KV{seq::kth_largest(cands, (cands.size() + 1) / 2),
            static_cast<Word>(cands.size())};
}

/// Step 3: the weighted median's broadcast. Over the sorted pairs, `ps`
/// holds the prefix counts; the processor whose prefix first covers half
/// the candidates sends its median `key`, and everyone learns it.
WordCast weighted_median_cast(Proc& self, const PartialSumsResult& ps,
                              Word key) {
  const auto half = (static_cast<std::size_t>(ps.total) + 1) / 2;  // ceil(m/2)
  const bool holds = static_cast<std::size_t>(ps.before) < half &&
                     half <= static_cast<std::size_t>(ps.self);
  return broadcast_word(self, holds, key, "no weighted-median broadcast");
}

/// Step 4: the local count of candidates >= med_star.
Word count_at_least(const std::vector<Word>& cands, Word med_star) {
  return static_cast<Word>(
      std::count_if(cands.begin(), cands.end(),
                    [med_star](Word w) { return w >= med_star; }));
}

/// Step 5: routes the segment's ranks against med_star, which m_s of its
/// m candidates are at least. Overall rank off + m_s is med_star itself
/// and is answered here; smaller ranks keep the window above med_star
/// (m_s - 1 candidates), larger ones the window below it (m - m_s
/// candidates, off grown by m_s). A segment straddling med_star splits:
/// the lower window waits on `stack` and filtering continues in the upper
/// one.
void route_ranks(Seg& seg, const std::vector<std::size_t>& uds, Word med_star,
                 std::size_t m_s, std::vector<Seg>& stack,
                 std::span<Word> answers) {
  const std::size_t at = seg.off + m_s;
  const auto first = uds.begin() + static_cast<std::ptrdiff_t>(seg.lo);
  const auto last = uds.begin() + static_cast<std::ptrdiff_t>(seg.hi);
  const auto split = static_cast<std::size_t>(
      std::lower_bound(first, last, at) - uds.begin());
  std::size_t below = split;  // first rank of the lower window
  if (below < seg.hi && uds[below] == at) answers[below++] = med_star;

  const bool upper = seg.lo < split, lower = below < seg.hi;
  if (upper && lower) {
    Seg low{{}, below, seg.hi, at, seg.m - m_s};
    low.cands.reserve(seg.cands.size());
    std::copy_if(seg.cands.begin(), seg.cands.end(),
                 std::back_inserter(low.cands),
                 [med_star](Word w) { return w < med_star; });
    stack.push_back(std::move(low));
  }
  if (upper) {
    std::erase_if(seg.cands, [med_star](Word w) { return w <= med_star; });
    seg.hi = split;
    seg.m = m_s - 1;
  } else if (lower) {
    std::erase_if(seg.cands, [med_star](Word w) { return w >= med_star; });
    seg.lo = below;
    seg.off = at;
    seg.m -= m_s;
  } else {
    seg.lo = seg.hi;  // the segment's one rank was med_star's
  }
}

/// The termination precondition, at every processor before collecting:
/// each of the segment's ranks lies within its m survivors. Ranks ascend,
/// so the last is the one to check.
void check_survivors(const Seg& seg, const std::vector<std::size_t>& uds,
                     std::size_t m) {
  const std::size_t d = uds[seg.hi - 1] - seg.off;
  MCB_REQUIRE(d <= m, kDistinctValues << ": duplicate keys left rank " << d
                                      << " of " << m << " survivors");
}

/// P_1's side of a segment's termination stream: writes its own survivors
/// in slots [lo, lo + |cands|) of the m, reads everyone else's, selects
/// each of the segment's ranks from the one pool into `out` and broadcasts
/// them in rank order.
Task<void> select_ranks_at_root(Proc& self, const Seg& seg,
                                const std::vector<std::size_t>& uds,
                                std::size_t lo, std::size_t m,
                                std::span<Word> out) {
  std::vector<Word> pool(m);
  auto aw = collect_window(self, seg.cands, lo, pool);
  co_await aw;
  self.note_aux(pool.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = seq::kth_largest(pool, uds[seg.lo + j] - seg.off);
  }
  auto ans = write_window(self, out, 0);
  co_await ans;
}

/// Termination of a segment: one collection answers all its ranks. Prefix
/// offsets give every processor a write window on channel 0; P_1 appends
/// its own survivors locally during its window and reads everyone else's,
/// then selects the ranks from the one pool and broadcasts them in rank
/// order — one cycle per rank. `out` is the segment's slice of this
/// processor's answer row, so the other processors read the answers
/// straight into place. A subroutine, so its await sites stay out of the
/// program's frame, and P_1's collector one of its own.
Task<void> collect_and_select_ranks(Proc& self, const Seg& seg,
                                    const std::vector<std::size_t>& uds,
                                    std::span<Word> out) {
  const auto ps = co_await partial_sums(
      self, static_cast<Word>(seg.cands.size()), SumOp::add(),
      {.with_total = true});
  check_survivors(seg, uds, static_cast<std::size_t>(ps.total));
  // Slots [before, self) of the total are this processor's.
  if (self.id() == 0) {
    co_await select_ranks_at_root(
        self, seg, uds, static_cast<std::size_t>(ps.before),
        static_cast<std::size_t>(ps.total), out);
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
  auto aw = read_window(self, idle, out);
  co_await aw;
}

/// One processor's selection. `answers` is its row of the answer array,
/// parallel to plan.uds. Only what crosses a phase lives in the frame;
/// `trace` is P_1's alone (nullptr elsewhere).
///
/// Phases: "setup", then "filter" rounds and a "terminate" per collected
/// segment. A run whose ranks were all answered inside filtering still
/// ends with one zero-length "terminate" phase, so every run
/// reports the same three phases.
ProcMain selection_program(Proc& self, const SelectionPlan& plan,
                           const std::vector<Word>& input,
                           std::span<Word> answers, SelTrace* trace) {
  // Census: every processor must know the initial candidate count.
  if (self.id() == 0) self.mark_phase("setup");
  Seg seg{{}, 0, plan.uds.size(), 0, 0};
  {
    const auto init = co_await partial_sums(
        self, static_cast<Word>(input.size()), SumOp::add(),
        {.with_total = true});
    seg.m = static_cast<std::size_t>(init.total);
  }
  seg.cands = input;
  std::vector<Seg> stack;
  bool collected = false;

  for (;;) {
    // --- filtering phases (Section 8, per segment) -----------------------
    while (seg.lo < seg.hi && seg.m > plan.threshold) {
      if (self.id() == 0) self.mark_phase("filter");
      if (trace != nullptr) {
        ++trace->phases;
        trace->candidates.push_back(seg.m);
      }

      // 1. local medians, 2. sorted descending by median.
      std::vector<KV> pair(1, median_pair(seg.cands));
      co_await columnsort_even_collective(self, plan.pair_sort, pair);

      // 3. prefix counts over the sorted order; locate the weighted median.
      const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                            {.with_total = true});
      MCB_REQUIRE(static_cast<std::size_t>(ps.total) == seg.m,
                  kDistinctValues << ": duplicate keys made the candidate "
                                     "count drift ("
                                  << ps.total << " vs " << seg.m << ")");
      auto cast = weighted_median_cast(self, ps, pair[0].key);
      const Word med_star = co_await cast;

      // 4. count candidates >= med_star network-wide.
      const auto gs = co_await partial_sums(
          self, count_at_least(seg.cands, med_star), SumOp::add(),
          {.with_total = true});

      // 5. route every rank.
      route_ranks(seg, plan.uds, med_star, static_cast<std::size_t>(gs.total),
                  stack, answers);
    }

    // --- termination: one collection answers the segment's ranks ---------
    if (seg.lo < seg.hi) {
      if (self.id() == 0) self.mark_phase("terminate");
      co_await collect_and_select_ranks(
          self, seg, plan.uds, answers.subspan(seg.lo, seg.hi - seg.lo));
      collected = true;
    }
    if (stack.empty()) break;
    seg = std::move(stack.back());
    stack.pop_back();
  }
  if (!collected && self.id() == 0) self.mark_phase("terminate");
}

/// Installs the program on every processor of `net`, runs it and hands
/// back the answers in request order; P_1's filtering trace lands in
/// `trace`.
MultiSelectionResult run_selection(Network& net,
                                   const std::vector<std::vector<Word>>& inputs,
                                   const std::vector<std::size_t>& ds,
                                   SelectionOptions opts, SelTrace& trace) {
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

  SelectionPlan plan;
  plan.uds = ds;
  std::sort(plan.uds.begin(), plan.uds.end());
  plan.uds.erase(std::unique(plan.uds.begin(), plan.uds.end()),
                 plan.uds.end());
  plan.threshold = opts.threshold != 0
                       ? opts.threshold
                       : std::max<std::size_t>(cfg.p / cfg.k, 1);
  plan.pair_sort = EvenSortPlan::build(cfg.p, cfg.k, 1);

  // One row of plan.uds.size() answers per processor.
  const std::size_t b = plan.uds.size();
  std::vector<Word> answers(cfg.p * b, 0);
  const std::span<Word> all(answers);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, selection_program(net.proc(i), plan, inputs[i],
                                     all.subspan(i * b, b),
                                     i == 0 ? &trace : nullptr));
  }
  MultiSelectionResult result;
  result.stats = net.run();
  result.filter_phases = trace.phases;
  const auto first = all.first(b);
  for (std::size_t i = 1; i < cfg.p; ++i) {
    MCB_CHECK(std::ranges::equal(all.subspan(i * b, b), first),
              "P" << i + 1 << " disagrees");
  }
  result.values.reserve(ds.size());
  for (std::size_t d : ds) {
    const auto it = std::lower_bound(plan.uds.begin(), plan.uds.end(), d);
    result.values.push_back(first[static_cast<std::size_t>(
        it - plan.uds.begin())]);
  }
  return result;
}

}  // namespace

MultiSelectionResult select_ranks_on(
    Network& net, const std::vector<std::vector<Word>>& inputs,
    const std::vector<std::size_t>& ds, SelectionOptions opts) {
  SelTrace trace;
  return run_selection(net, inputs, ds, opts, trace);
}

MultiSelectionResult select_ranks(const SimConfig& cfg,
                                  const std::vector<std::vector<Word>>& inputs,
                                  const std::vector<std::size_t>& ds,
                                  SelectionOptions opts, TraceSink* sink) {
  cfg.validate();
  Network net(cfg, sink);
  return select_ranks_on(net, inputs, ds, opts);
}

SelectionResult select_rank(const SimConfig& cfg,
                            const std::vector<std::vector<Word>>& inputs,
                            std::size_t d, SelectionOptions opts,
                            TraceSink* sink) {
  cfg.validate();
  Network net(cfg, sink);
  SelTrace trace;
  auto batch = run_selection(net, inputs, {d}, opts, trace);
  SelectionResult result;
  result.value = batch.values[0];
  result.filter_phases = batch.filter_phases;
  result.candidates_per_phase = std::move(trace.candidates);
  result.stats = std::move(batch.stats);
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
