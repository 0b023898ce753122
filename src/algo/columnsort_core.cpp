#include "algo/columnsort_core.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/span.hpp"
#include "seq/columnsort.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo::detail {
namespace {

/// One representative's side of a transformation: elements that stay in
/// its column move locally up front; the rest leave one per plan round
/// whose schedule names a destination for this column, and arrivals land
/// at the row their message carries.
class TransformBurst {
 public:
  TransformBurst(const CorePlan& plan, std::size_t t, std::size_t my_col,
                 const std::vector<KV>& column)
      : table_(plan.tables[t]),
        rounds_(plan.plans[t]),
        m_(plan.m),
        col_(my_col),
        column_(column),
        next_(plan.m),
        queue_(plan.kk),
        ptr_(plan.kk, 0) {
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t dst = table_[col_ * m_ + r];
      const std::size_t dc = dst / m_;
      if (dc == col_) {
        next_[dst % m_] = column_[r];
      } else {
        queue_[dc].push_back(static_cast<std::uint32_t>(r));
      }
    }
  }

  bool done() const { return round_ == rounds_.cycles(); }

  Proc::BurstAwaiter next(Proc& self) {
    c_.len = std::min(kBurstLen, rounds_.cycles() - round_);
    for (std::size_t j = 0; j < c_.len; ++j) {
      Beat& b = c_.beats[j];
      const auto dc = rounds_.dst_of(round_ + j, col_);
      b.write = kNoChannel;
      if (dc != sched::kIdle) {
        MCB_CHECK(ptr_[dc] < queue_[dc].size(),
                  "send queue " << col_ << "->" << dc << " exhausted");
        const std::size_t r = queue_[dc][ptr_[dc]++];
        const std::size_t dst = table_[col_ * m_ + r];
        b.msg = Message::of(column_[r].key, column_[r].val,
                            static_cast<Word>(dst % m_));
        b.write = static_cast<ChannelId>(col_);
      }
      const auto sc = rounds_.src_of(round_ + j, col_);
      b.read = sc != sched::kIdle ? static_cast<ChannelId>(sc) : kNoChannel;
    }
    return self.burst_after(0, {c_.beats.data(), c_.len},
                            {c_.got.data(), c_.len});
  }

  void place() {
    for (std::size_t j = 0; j < c_.len; ++j) {
      if (c_.beats[j].read == kNoChannel) continue;
      const Proc::ReadResult& got = c_.got[j];
      MCB_CHECK(got.has_value(),
                "missing transfer on channel " << c_.beats[j].read);
      next_[static_cast<std::size_t>((*got)[2])] = KV{(*got)[0], (*got)[1]};
    }
    round_ += c_.len;
  }

  std::vector<KV>& next() { return next_; }

 private:
  const std::vector<std::uint32_t>& table_;
  const sched::TransferPlan& rounds_;
  std::size_t m_;
  std::size_t col_;
  const std::vector<KV>& column_;
  std::vector<KV> next_;
  /// queue_[dc]: rows bound for column dc, in the order they are sent.
  std::vector<std::vector<std::uint32_t>> queue_;
  std::vector<std::size_t> ptr_;
  std::size_t round_ = 0;
  BurstChunk c_;
};

/// The next run of action cycles at or after t, as [a, b) (a == b when
/// none is left), in a redistribution pass whose actions are the write
/// prefix [0, w1) and the read window [r0, r1): the write prefix (with any
/// reads inside it), then what is left of the read window. t is 0 or the
/// end of the previous run.
std::pair<std::size_t, std::size_t> next_run(std::size_t t, std::size_t w1,
                                             std::size_t r0,
                                             std::size_t r1) {
  if (t < w1) return {t, w1};
  if (t < r1) return {std::max(t, r0), r1};
  return {t, t};
}

}  // namespace

Proc::BurstAwaiter KvBurst::next(Proc& self) {
  c_.len = std::min(kBurstLen, w_.end - t_);
  for (std::size_t j = 0; j < c_.len; ++j) {
    const std::size_t t = t_ + j;
    Beat& b = c_.beats[j];
    b.write = kNoChannel;
    if (t < w_.w1) {
      const KV& e = w_.src[t];
      b.msg = Message::of(e.key, e.val);
      b.write = w_.wch;
    }
    b.read = t >= w_.r0 && t < w_.r1 ? w_.rch : kNoChannel;
  }
  // A write-only window keeps no reads.
  const std::size_t slots = w_.r0 < w_.r1 ? c_.len : 0;
  return self.burst_after(0, {c_.beats.data(), c_.len},
                          {c_.got.data(), slots});
}

void KvBurst::place() {
  for (std::size_t j = 0; j < c_.len; ++j) {
    const std::size_t t = t_ + j;
    if (t < w_.r0 || t >= w_.r1) continue;
    const Proc::ReadResult& got = c_.got[j];
    MCB_CHECK(got.has_value(), "burst read of channel " << w_.rch
                                   << " silent in window cycle " << t);
    w_.dst[t - w_.r0] = KV{(*got)[0], (*got)[1]};
  }
  t_ += c_.len;
}

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

std::shared_ptr<const CorePlan> CorePlan::shared(
    std::size_t m, std::size_t kk, seq::ColumnsortVariant variant) {
  struct Entry {
    std::size_t m, kk;
    seq::ColumnsortVariant variant;
    std::weak_ptr<const CorePlan> plan;
  };
  static std::mutex mu;
  static std::vector<Entry> live;  // plans some caller still holds
  static std::shared_ptr<const CorePlan> last;  // most recently built
  const auto find = [&]() -> std::shared_ptr<const CorePlan> {
    for (const Entry& e : live) {
      if (e.m == m && e.kk == kk && e.variant == variant) {
        if (auto held = e.plan.lock()) return held;
      }
    }
    return nullptr;
  };
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (auto held = find()) return held;
  }
  // Build outside the lock: trials of other shapes on other threads need
  // not wait for it. A concurrent build of the same shape is harmless; the
  // first one published wins.
  auto built = std::make_shared<const CorePlan>(build(m, kk, variant));
  const std::lock_guard<std::mutex> lock(mu);
  if (auto held = find()) return held;
  std::erase_if(live, [](const Entry& e) { return e.plan.expired(); });
  live.push_back(Entry{m, kk, variant, built});
  last = built;
  return built;
}

void sort_column_desc(std::vector<KV>& column) {
  seq::sort_by_runs(std::span<KV>(column), [](const KV& a, const KV& b) {
    return desc_before(a, b);
  });
}

Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column) {
  auto burst = std::make_unique<TransformBurst>(plan, t, my_col, column);
  self.note_aux(2 * plan.m);
  while (!burst->done()) {
    auto aw = burst->next(self);
    co_await aw;
    burst->place();
  }
  column.swap(burst->next());
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
  // Idle cycles owed but not yet slept, carried across both passes into
  // the next action.
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
    if (is_rep && want_col == my_col) {
      // Own column: take the segment locally, no channel reads needed.
      for (std::size_t t = t_read0; t < t_read1; ++t) {
        output[want_col * m + t - lo] = column[t];
      }
      t_read0 = t_read1 = m;
    }
    // The pass's action cycles: a representative's write prefix
    // [0, real_here) and the (possibly overlapping) read window, taken as
    // at most two runs; sleep through the gaps and the idle tail.
    const std::size_t w1 = is_rep ? real_here : 0;
    std::size_t t = 0;
    while (true) {
      const auto [a, b] = next_run(t, w1, t_read0, t_read1);
      if (a == b) break;
      idle += a - t;
      t = b;
      if (b - a == 1) {
        // A single action stays on cycle_after: no buffer to build.
        const bool writing = a < w1;
        const bool reading = a >= t_read0 && a < t_read1;
        auto aw = self.cycle_after(
            std::exchange(idle, 0),
            writing ? std::optional<WriteOp>(
                          WriteOp{static_cast<ChannelId>(my_col),
                                  Message::of(column[a].key, column[a].val)})
                    : std::nullopt,
            reading ? std::optional<ChannelId>(
                          static_cast<ChannelId>(want_col))
                    : std::nullopt);
        const Proc::ReadResult got = co_await aw;
        if (reading) {
          MCB_CHECK(got.has_value(), "redistribute slot empty (rank "
                                         << want_col * m + a << ")");
          output[want_col * m + a - lo] = KV{(*got)[0], (*got)[1]};
        }
        continue;
      }
      // Sleep to the run before building its buffer, so a processor holds
      // one only while it acts.
      if (idle > 0) co_await self.skip(std::exchange(idle, 0));
      auto burst = std::make_unique<KvBurst>(KvWindow{
          .begin = a,
          .end = b,
          .wch = static_cast<ChannelId>(my_col),
          .src = column.data(),
          .w1 = w1,
          .rch = static_cast<ChannelId>(want_col),
          .dst = t_read0 < t_read1
                     ? output.data() + (want_col * m + t_read0 - lo)
                     : nullptr,
          .r0 = t_read0,
          .r1 = t_read1});
      while (!burst->done()) {
        auto aw = burst->next(self);
        co_await aw;
        burst->place();
      }
    }
    idle += m - t;
  }
  if (idle > 0) co_await self.skip(idle);
}

}  // namespace mcb::algo::detail
