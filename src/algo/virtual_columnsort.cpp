#include "algo/virtual_columnsort.hpp"

#include <array>
#include <memory>
#include <utility>
#include <variant>

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

/// One transform over the virtual columns, as one window with this step
/// awaiter as its source. `idle` cycles are slept out before the first
/// round, as the window's lead.
class [[nodiscard]] VTransform : public Proc::StepAwaiter<VTransform> {
 public:
  VTransform(Proc& self, const VCtx& ctx, std::size_t t,
             std::vector<Word>& rows, Cycle idle)
      : StepAwaiter(self),
        ctx_(&ctx),
        j_(self.id() / ctx.g),
        idx_(self.id() % ctx.g),
        base_(idx_ * ctx.ni),
        table_(&ctx.plan->tables[t]),
        rounds_(&ctx.plan->plans[t]),
        moves_(&ctx.intra[t][j_]),
        rows_(&rows),
        next_(rows.size()),
        queue_(ctx.kk),
        ptr_(ctx.kk, 0),
        idle_(idle),
        pad_(ctx.intra_rounds[t] - moves_->size()) {
    const std::size_t m = ctx.plan->m;
    self.note_aux(2 * rows.size());
    // Intra-column moves that stay within this member are pure local
    // copies (including stationary elements).
    for (std::size_t r = base_; r < base_ + rows.size(); ++r) {
      const std::size_t dst = (*table_)[j_ * m + r];
      if (dst / m == j_ && row_owner(ctx, dst % m) == idx_) {
        next_[dst % m - base_] = rows[r - base_];
      }
    }
    // Every member replays the column's send queues so the owner of the
    // scheduled row knows when to speak (deterministic local computation).
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t dst = (*table_)[j_ * m + r];
      if (dst / m != j_) {
        queue_[dst / m].push_back(static_cast<std::uint32_t>(r));
      }
    }
  }

  // The inter-column rounds, then the intra-column rounds (a fixed count
  // across columns, for lockstep), as one window: columns with fewer intra
  // moves sleep through the padding rounds as its trail.
  bool begin(Proc& self) {
    const std::size_t beats = rounds_->cycles() + moves_->size();
    if (idle_ + beats + pad_ == 0) return step(self);
    self.act_window(*this, idle_, beats, pad_);
    return true;
  }
  bool step(Proc&) {
    rows_->swap(next_);
    return false;
  }

  Beat fill(std::size_t round) {
    const std::size_t m = ctx_->plan->m;
    const std::size_t inter = rounds_->cycles();
    const auto jch = static_cast<ChannelId>(j_);
    const std::vector<Word>& rows = *rows_;
    Beat b;
    if (round >= inter) {
      const auto [sr, dr] = (*moves_)[round - inter];
      if (row_owner(*ctx_, sr) == idx_) {
        b.msg = Message::of(rows[sr - base_], static_cast<Word>(dr));
        b.write = jch;
      } else {
        b.read = jch;
      }
      return b;
    }
    const auto dc = rounds_->dst_of(round, j_);
    if (dc != sched::kIdle) {
      const std::size_t r = queue_[dc][ptr_[dc]++];
      if (row_owner(*ctx_, r) == idx_) {
        const std::size_t dst = (*table_)[j_ * m + r];
        b.msg = Message::of(rows[r - base_], static_cast<Word>(dst % m));
        b.write = jch;
      }
    }
    const auto sc = rounds_->src_of(round, j_);
    if (sc != sched::kIdle) b.read = static_cast<ChannelId>(sc);
    return b;
  }

  void place(std::size_t round, const Proc::ReadResult& got) {
    const std::size_t inter = rounds_->cycles();
    if (round >= inter) {
      const auto [sr, dr] = (*moves_)[round - inter];
      if (row_owner(*ctx_, dr) != idx_) return;
      MCB_CHECK(got.has_value(), "intra move " << sr << "->" << dr
                                               << " silent");
      next_[dr - base_] = got->at(0);
    } else if (got) {
      const auto dr = static_cast<std::size_t>(got->at(1));
      if (row_owner(*ctx_, dr) == idx_) next_[dr - base_] = got->at(0);
    }
  }

 private:
  const VCtx* ctx_;
  std::size_t j_, idx_, base_;  ///< column, member index, first row held
  const std::vector<std::uint32_t>* table_;
  const sched::TransferPlan* rounds_;
  const std::vector<IntraMove>* moves_;
  std::vector<Word>* rows_;
  std::vector<Word> next_;
  std::vector<std::vector<std::uint32_t>> queue_;
  std::vector<std::size_t> ptr_;
  Cycle idle_;
  std::size_t pad_;  ///< padding rounds, slept as the trail
};

using Sub = StepSlot<RankSort, MergeSort, VTransform>;

/// Loads the sort of virtual column j into `sub`: the group's Rank-Sort or
/// Merge-Sort collective on its channel, or, with one member per group,
/// nothing to await, as the whole column is local and sorts here for free.
void load_sort(Sub& sub, Proc& self, const VCtx& ctx, std::size_t j,
               std::vector<Word>& rows) {
  if (ctx.g == 1) {
    seq::sort_descending(rows);
    sub.emplace<std::monostate>();
    return;
  }
  const GroupSpec grp{static_cast<ProcId>(j * ctx.g), ctx.g,
                      static_cast<ChannelId>(j)};
  if (ctx.local_sort == LocalSort::kRankSort) {
    sub.emplace<RankSort>(self, grp, ctx.sizes, rows);
  } else {
    sub.emplace<MergeSort>(self, grp, ctx.sizes, rows);
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
  // Phases 1-8: column sorts and transforms alternate, and every step
  // runs in `sub`. Column 1 skips the phase-7 sort and idles through it
  // in lockstep, as the lead of phase 8.
  Sub sub;
  load_sort(sub, self, ctx, j, rows);  // phase 1
  co_await sub;
  for (std::size_t t = 0; t < 4 && ctx.kk > 1; ++t) {
    const Cycle idle = t == 3 && j == 0 ? ctx.sort_cost : 0;
    sub.emplace<VTransform>(self, ctx, t, rows, idle);  // phase 2t+2
    co_await sub;
    if (t < 2 || (t == 2 && j != 0)) {
      load_sort(sub, self, ctx, j, rows);  // phase 2t+3
      co_await sub;
    }
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
  // Both passes as one window of 2m beats.
  const auto rank_of = [&](std::size_t beat) {
    const std::size_t want_col = beat < m ? lo / m : (hi - 1) / m;
    return want_col * m + beat % m;
  };
  auto aw = self.window(
      0, 2 * m, 0,
      [&](std::size_t beat) {
        const std::size_t t = beat % m;
        const std::size_t rank = rank_of(beat);
        const bool mine = row_owner(ctx, t) == idx;
        Beat b;
        if (mine && j * m + t < ctx.n) {
          b.msg = Message::of(rows[t - base]);
          b.write = jch;
        }
        if (rank >= lo && rank < hi) {
          if (rank / m == j && mine) {
            output[rank - lo] = rows[t - base];  // my own row
          } else {
            b.read = static_cast<ChannelId>(rank / m);
          }
        }
        return b;
      },
      [&](std::size_t beat, const Proc::ReadResult& got) {
        const std::size_t rank = rank_of(beat);
        MCB_CHECK(got.has_value(),
                  "virtual redistribute slot empty (rank " << rank << ")");
        output[rank - lo] = got->at(0);
      });
  co_await aw;
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

  // Deterministic cost of one virtual-column sort, for the phase-7 sleep.
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
