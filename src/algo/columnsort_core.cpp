#include "algo/columnsort_core.hpp"

#include <utility>

#include "obs/span.hpp"
#include "seq/columnsort.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo::detail {
namespace {

}  // namespace

CorePlan CorePlan::build(std::size_t m, std::size_t kk,
                         seq::ColumnsortVariant variant) {
  MCB_REQUIRE(seq::columnsort_dims_ok(m, kk, variant),
              "invalid Columnsort dimensions m=" << m << " kk=" << kk
                                                 << " for this variant");
  const std::array<sched::Transform, 4> transforms = {
      sched::Transform::kTranspose,
      variant == seq::ColumnsortVariant::kUndiagonalize
          ? sched::Transform::kUndiagonalize
          : sched::Transform::kUntranspose,
      sched::Transform::kUpShift, sched::Transform::kDownShift};
  CorePlan plan;
  plan.m = m;
  plan.kk = kk;
  if (kk > 1) {
    for (std::size_t t = 0; t < transforms.size(); ++t) {
      plan.tables[t] = sched::permutation_table(transforms[t], m, kk);
      plan.plans[t] =
          sched::plan_transform(transforms[t], m, kk, &plan.tables[t]);
      plan.core_cycles += plan.plans[t].cycles();
    }
  }
  return plan;
}

void sort_column_desc(std::vector<KV>& column) {
  seq::intro_sort(std::span<KV>(column),
                  [](const KV& a, const KV& b) { return desc_before(a, b); });
}

Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column) {
  const auto& table = plan.tables[t];
  const auto& rounds = plan.plans[t];
  const std::size_t m = plan.m;

  std::vector<KV> next(m);
  std::vector<std::vector<std::uint32_t>> queue(plan.kk);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t dst = table[my_col * m + r];
    const std::size_t dc = dst / m;
    if (dc == my_col) {
      next[dst % m] = column[r];
    } else {
      queue[dc].push_back(static_cast<std::uint32_t>(r));
    }
  }
  self.note_aux(2 * m);

  std::vector<std::size_t> ptr(plan.kk, 0);
  for (const auto& round : rounds.rounds) {
    std::optional<WriteOp> write;
    std::optional<ChannelId> read;
    const auto dc = round.dst[my_col];
    if (dc != sched::kIdle) {
      MCB_CHECK(ptr[dc] < queue[dc].size(),
                "send queue " << my_col << "->" << dc << " exhausted");
      const std::size_t r = queue[dc][ptr[dc]++];
      const std::size_t dst = table[my_col * m + r];
      write = WriteOp{static_cast<ChannelId>(my_col),
                      Message::of(column[r].key, column[r].val,
                                  static_cast<Word>(dst % m))};
    }
    const auto sc = round.src[my_col];
    if (sc != sched::kIdle) read = static_cast<ChannelId>(sc);
    auto got = co_await self.cycle(std::move(write), read);
    if (sc != sched::kIdle) {
      MCB_CHECK(got.has_value(), "missing transfer on channel " << sc);
      next[static_cast<std::size_t>(got->at(2))] = KV{got->at(0), got->at(1)};
    }
  }
  column.swap(next);
}

Task<void> columnsort_phases(Proc& self, const CorePlan& plan,
                             std::size_t my_col, std::vector<KV>& column) {
  MCB_CHECK(column.size() == plan.m,
            "column length " << column.size() << " != m=" << plan.m);
  self.note_aux(column.size());
  // Phase spans: the odd (local sort) phases cost zero cycles by the model
  // — local computation is free — so their spans record a 0-cycle mark;
  // the transform phases carry the communication.
  {
    obs::Span sp(self, "cs.phase1.sort");                    // phase 1
    sort_column_desc(column);
  }
  if (plan.kk > 1) {
    {
      obs::Span sp(self, "cs.phase2.transform");             // phase 2
      co_await run_transform(self, plan, 0, my_col, column);
    }
    {
      obs::Span sp(self, "cs.phase3.sort");                  // phase 3
      sort_column_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase4.transform");             // phase 4
      co_await run_transform(self, plan, 1, my_col, column);
    }
    {
      obs::Span sp(self, "cs.phase5.sort");                  // phase 5
      sort_column_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase6.transform");             // phase 6
      co_await run_transform(self, plan, 2, my_col, column);
    }
    if (my_col != 0) {
      obs::Span sp(self, "cs.phase7.sort");                  // phase 7
      sort_column_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase8.transform");             // phase 8
      co_await run_transform(self, plan, 3, my_col, column);
    }
    // Phase 9 (local re-sort) is unnecessary: the schedules place every
    // element at its exact destination row, so after phase 8 the column is
    // already in final order.
  }
}

Task<void> core_skip(Proc& self, const CorePlan& plan) {
  if (plan.core_cycles > 0) co_await self.skip(plan.core_cycles);
}

Task<void> redistribute(Proc& self, const CorePlan& plan, bool is_rep,
                        std::size_t my_col, const std::vector<KV>& column,
                        std::size_t n, std::size_t lo, std::size_t hi,
                        std::vector<KV>& output) {
  const std::size_t m = plan.m;
  MCB_CHECK(hi >= lo && hi <= n, "segment [" << lo << "," << hi << ") of "
                                             << n);
  MCB_CHECK(hi - lo <= m, "segment longer than a column");
  output.assign(hi - lo, KV{});
  // Real (non-dummy) elements in this representative's final column: the
  // dummies are the global minimum, so reals occupy ranks [0, n) and column
  // c holds ranks [c*m, c*m + m).
  const std::size_t real_here =
      is_rep ? std::min(m, n > my_col * m ? n - my_col * m : std::size_t{0})
             : 0;
  // Idle cycles owed but not yet slept; every action sleeps them out in the
  // same suspension (cycle_after), across both passes.
  Cycle idle = 0;
  for (int pass = 0; pass < 2; ++pass) {
    // A contiguous segment of <= m ranks spans at most two consecutive
    // columns; collect the first in pass 0, the second in pass 1.
    const std::size_t want_col =
        hi == lo ? SIZE_MAX : (pass == 0 ? lo / m : (hi - 1) / m);
    // This processor's read window within the pass: the in-column slots t
    // whose rank want_col*m + t falls in [lo, hi). Contiguous by
    // construction, and empty when want_col is SIZE_MAX.
    std::size_t t_read0 = m, t_read1 = m;
    if (want_col != SIZE_MAX) {
      const std::size_t col_lo = want_col * m;
      t_read0 = lo > col_lo ? lo - col_lo : 0;
      t_read1 = hi > col_lo ? std::min(m, hi - col_lo) : 0;
      if (t_read1 < t_read0) t_read1 = t_read0;
    }
    if (!is_rep) {
      // Non-representatives only read; sleep through the rest of the pass
      // (observationally identical to idle cycles: no intent either way).
      idle += t_read0;
      for (std::size_t t = t_read0; t < t_read1; ++t) {
        auto aw = self.cycle_after(std::exchange(idle, 0), std::nullopt,
                                   static_cast<ChannelId>(want_col));
        const Proc::ReadResult got = co_await aw;
        MCB_CHECK(got.has_value(), "redistribute slot empty (rank "
                                       << want_col * m + t << ")");
        output[want_col * m + t - lo] = KV{got->at(0), got->at(1)};
      }
      idle += m - t_read1;
      continue;
    }
    if (want_col == my_col) {
      // Own column: take the segment locally, no channel reads needed.
      for (std::size_t t = t_read0; t < t_read1; ++t) {
        output[want_col * m + t - lo] = column[t];
      }
      t_read0 = t_read1 = m;
    }
    // A representative's action cycles are the write prefix [0, real_here)
    // plus the (possibly overlapping) read window; sleep through the gap
    // between them and the idle tail of the pass.
    std::size_t t = 0;
    while (t < m) {
      const bool writing = t < real_here;
      const bool reading = t >= t_read0 && t < t_read1;
      if (!writing && !reading) {
        const std::size_t next_act = t < t_read0 ? t_read0 : m;
        idle += next_act - t;
        t = next_act;
        continue;
      }
      auto aw = self.cycle_after(
          std::exchange(idle, 0),
          writing ? std::optional<WriteOp>(
                        WriteOp{static_cast<ChannelId>(my_col),
                                Message::of(column[t].key, column[t].val)})
                  : std::nullopt,
          reading ? std::optional<ChannelId>(static_cast<ChannelId>(want_col))
                  : std::nullopt);
      const Proc::ReadResult got = co_await aw;
      if (reading) {
        MCB_CHECK(got.has_value(), "redistribute slot empty (rank "
                                       << want_col * m + t << ")");
        output[want_col * m + t - lo] = KV{got->at(0), got->at(1)};
      }
      ++t;
    }
  }
  if (idle > 0) co_await self.skip(idle);
}

}  // namespace mcb::algo::detail
