#include "algo/virtual_columnsort.hpp"

#include <array>
#include <memory>
#include <utility>

#include "algo/columnsort_core.hpp"
#include "algo/common.hpp"
#include "algo/mergesort.hpp"
#include "algo/ranksort.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// One intra-column move: the element at row `src` goes to row `dst` of the
/// same column — local in the representative-based algorithm, a broadcast
/// between group members here.
struct IntraMove {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

struct VCtx {
  std::size_t kk = 0;
  std::size_t g = 0;   ///< members per group (= rows owners per column)
  std::size_t n = 0;
  std::size_t ni = 0;
  bool redistribute = false;
  LocalSort local_sort = LocalSort::kRankSort;
  std::shared_ptr<const detail::CorePlan> plan;
  /// intra[t][c]: column c's intra moves for transform t, in src-row order.
  std::array<std::vector<std::vector<IntraMove>>, 4> intra;
  std::array<std::size_t, 4> intra_rounds{};  ///< max list length per t
  std::vector<std::size_t> sizes;  ///< group-member element counts (shared)
  Cycle sort_cost = 0;             ///< cycles of one virtual-column sort
};

/// Which group member owns row r (the last member also owns the padding).
std::size_t row_owner(const VCtx& ctx, std::size_t r) {
  return std::min(r / ctx.ni, ctx.g - 1);
}

/// One transform over the virtual columns. `idle` cycles are slept out
/// before the first round, riding on this member's first action.
Task<void> v_transform(Proc& self, const VCtx& ctx, std::size_t t,
                       std::size_t j, std::size_t idx,
                       std::vector<Word>& rows, Cycle idle = 0) {
  const auto& table = ctx.plan->tables[t];
  const std::size_t m = ctx.plan->m;
  const std::size_t base = idx * ctx.ni;
  const auto jch = static_cast<ChannelId>(j);

  std::vector<Word> next(rows.size());
  self.note_aux(2 * rows.size());

  // Intra-column moves that stay within this member are pure local copies
  // (including stationary elements).
  for (std::size_t r = base; r < base + rows.size(); ++r) {
    const std::size_t dst = table[j * m + r];
    if (dst / m == j && row_owner(ctx, dst % m) == idx) {
      next[dst % m - base] = rows[r - base];
    }
  }

  // Every member replays the column's send queues so the owner of the
  // scheduled row knows when to speak (deterministic local computation).
  std::vector<std::vector<std::uint32_t>> queue(ctx.kk);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t dst = table[j * m + r];
    if (dst / m != j) {
      queue[dst / m].push_back(static_cast<std::uint32_t>(r));
    }
  }
  std::vector<std::size_t> ptr(ctx.kk, 0);

  // --- inter-column rounds --------------------------------------------------
  const sched::TransferPlan& rounds = ctx.plan->plans[t];
  for (std::size_t round = 0; round < rounds.cycles(); ++round) {
    std::optional<WriteOp> write;
    std::optional<ChannelId> read;
    const auto dc = rounds.dst_of(round, j);
    if (dc != sched::kIdle) {
      const std::size_t r = queue[dc][ptr[dc]++];
      if (row_owner(ctx, r) == idx) {
        const std::size_t dst = table[j * m + r];
        write = WriteOp{jch, Message::of(rows[r - base],
                                         static_cast<Word>(dst % m))};
      }
    }
    const auto sc = rounds.src_of(round, j);
    if (sc != sched::kIdle) read = static_cast<ChannelId>(sc);
    auto aw = self.cycle_after(std::exchange(idle, 0), std::move(write), read);
    const Proc::ReadResult got = co_await aw;
    if (got) {
      const auto dr = static_cast<std::size_t>(got->at(1));
      if (row_owner(ctx, dr) == idx) next[dr - base] = got->at(0);
    }
  }

  // --- intra-column rounds (fixed count across columns, for lockstep) -----
  const auto& moves = ctx.intra[t][j];
  for (std::size_t round = 0; round < moves.size(); ++round) {
    const auto [sr, dr] = moves[round];
    const bool own_src = row_owner(ctx, sr) == idx;
    const bool own_dst = row_owner(ctx, dr) == idx;
    if (own_src) {
      auto aw = self.cycle_after(
          std::exchange(idle, 0),
          WriteOp{jch, Message::of(rows[sr - base], static_cast<Word>(dr))},
          std::nullopt);
      co_await aw;
    } else {
      auto aw = self.cycle_after(std::exchange(idle, 0), std::nullopt, jch);
      const Proc::ReadResult got = co_await aw;
      if (own_dst) {
        MCB_CHECK(got.has_value(), "intra move " << sr << "->" << dr
                                                 << " silent");
        next[dr - base] = got->at(0);
      }
    }
  }
  // Columns with fewer moves sleep through the padding rounds that keep the
  // group lockstep.
  idle += ctx.intra_rounds[t] - moves.size();
  if (idle > 0) co_await self.skip(idle);
  rows.swap(next);
}

Task<void> v_sort(Proc& self, const VCtx& ctx, std::size_t j,
                  std::vector<Word>& rows) {
  if (ctx.g == 1) {
    seq::sort_descending(rows);  // whole column local: free
    co_return;
  }
  const GroupSpec grp{static_cast<ProcId>(j * ctx.g), ctx.g,
                      static_cast<ChannelId>(j)};
  if (ctx.local_sort == LocalSort::kRankSort) {
    co_await ranksort_group(self, grp, ctx.sizes, rows);
  } else {
    co_await mergesort_group(self, grp, ctx.sizes, rows);
  }
}

ProcMain virtual_program(Proc& self, const VCtx& ctx,
                         const std::vector<Word>& input,
                         std::vector<Word>& output) {
  const std::size_t i = self.id();
  const std::size_t j = i / ctx.g;
  const std::size_t idx = i % ctx.g;
  const std::size_t m = ctx.plan->m;
  const std::size_t base = idx * ctx.ni;

  // My slice of the virtual column; the last member also holds the padding.
  std::vector<Word> rows = input;
  if (idx == ctx.g - 1) {
    rows.resize(m - base, kDummy);
  }
  self.note_aux(rows.size());

  if (i == 0) self.mark_phase("virtual-columnsort");
  co_await v_sort(self, ctx, j, rows);                    // phase 1
  if (ctx.kk > 1) {
    co_await v_transform(self, ctx, 0, j, idx, rows);     // phase 2
    co_await v_sort(self, ctx, j, rows);                  // phase 3
    co_await v_transform(self, ctx, 1, j, idx, rows);     // phase 4
    co_await v_sort(self, ctx, j, rows);                  // phase 5
    co_await v_transform(self, ctx, 2, j, idx, rows);     // phase 6
    // Column 1 idles through phase 7 in lockstep, into phase 8.
    const Cycle idle = j != 0 ? 0 : ctx.sort_cost;
    if (j != 0) co_await v_sort(self, ctx, j, rows);      // phase 7
    co_await v_transform(self, ctx, 3, j, idx, rows, idle);  // phase 8
  }

  // --- final ownership fix-up ----------------------------------------------
  if (!ctx.redistribute) {
    output = std::move(rows);
    co_return;
  }
  if (i == 0) self.mark_phase("virtual-redistribute");
  // Same double-broadcast as phase 10, except each member broadcasts its
  // own rows (rank r lives at row r%m of column r/m).
  const std::size_t lo = i * ctx.ni;
  const std::size_t hi = lo + ctx.ni;
  output.assign(ctx.ni, 0);
  const auto jch = static_cast<ChannelId>(j);
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t want_col = pass == 0 ? lo / m : (hi - 1) / m;
    for (std::size_t t = 0; t < m; ++t) {
      std::optional<WriteOp> write;
      std::optional<ChannelId> read;
      const bool i_broadcast =
          row_owner(ctx, t) == idx && j * m + t < ctx.n;
      if (i_broadcast) {
        write = WriteOp{jch, Message::of(rows[t - base])};
      }
      const std::size_t rank = want_col * m + t;
      bool reading = rank >= lo && rank < hi;
      if (reading && want_col == j && row_owner(ctx, t) == idx) {
        output[rank - lo] = rows[t - base];  // my own row
        reading = false;
      }
      if (reading) read = static_cast<ChannelId>(want_col);
      auto got = co_await self.cycle(std::move(write), read);
      if (reading) {
        MCB_CHECK(got.has_value(),
                  "virtual redistribute slot empty (rank " << rank << ")");
        output[rank - lo] = got->at(0);
      }
    }
  }
}

}  // namespace

ColumnsortEvenResult virtual_columnsort(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs,
    VirtualColumnsortOptions opts, TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  const std::size_t ni = inputs.front().size();
  MCB_REQUIRE(ni > 0, "every processor needs at least one element");
  for (const auto& in : inputs) {
    MCB_REQUIRE(in.size() == ni, "distribution is not even");
    for (Word w : in) {
      MCB_REQUIRE(w != kDummy, "input contains the reserved dummy value");
    }
  }

  VCtx ctx;
  ctx.n = cfg.p * ni;
  ctx.ni = ni;
  ctx.local_sort = opts.local_sort;
  ctx.kk = opts.columns != 0 ? opts.columns
                             : choose_columns(ctx.n, cfg.p, cfg.k);
  MCB_REQUIRE(ctx.kk >= 1 && ctx.kk <= cfg.k && cfg.p % ctx.kk == 0,
              "column count " << ctx.kk << " infeasible for p=" << cfg.p
                              << " k=" << cfg.k);
  ctx.g = cfg.p / ctx.kk;
  const std::size_t m = round_up(ctx.n / ctx.kk, ctx.kk);
  ctx.redistribute = m != ctx.g * ni;
  ctx.plan = detail::CorePlan::shared(m, ctx.kk);

  // Intra-column move lists per transform.
  if (ctx.kk > 1) {
    for (std::size_t t = 0; t < 4; ++t) {
      ctx.intra[t].resize(ctx.kk);
      const auto& table = ctx.plan->tables[t];
      for (std::size_t c = 0; c < ctx.kk; ++c) {
        for (std::size_t r = 0; r < m; ++r) {
          const std::size_t dst = table[c * m + r];
          // Only moves crossing member boundaries need a broadcast round;
          // same-owner moves (stationary ones included) are local copies.
          if (dst / m == c && row_owner(ctx, r) != row_owner(ctx, dst % m)) {
            ctx.intra[t][c].push_back(
                IntraMove{static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(dst % m)});
          }
        }
        ctx.intra_rounds[t] =
            std::max(ctx.intra_rounds[t], ctx.intra[t][c].size());
      }
    }
  }

  // Member element counts within a group (identical for every group).
  ctx.sizes.assign(ctx.g, ni);
  ctx.sizes.back() = m - (ctx.g - 1) * ni;

  // Deterministic cost of one virtual-column sort, for the phase-7 skip.
  if (ctx.g > 1) {
    ctx.sort_cost = ctx.local_sort == LocalSort::kRankSort
                        ? 2 * m
                        : 3 * ctx.g + 4 * m;
  }

  ColumnsortEvenResult result;
  result.columns = ctx.kk;
  result.column_len = m;
  result.run = run_network(
      cfg, inputs,
      [&ctx](Proc& self, const std::vector<Word>& in,
             std::vector<Word>& out) {
        return virtual_program(self, ctx, in, out);
      },
      sink);
  return result;
}

}  // namespace mcb::algo
