#include "algo/columnsort_core.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/span.hpp"
#include "seq/columnsort.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo::detail {

/// One representative's side of a transformation: elements that stay in
/// its column move locally up front; the rest leave one per plan round
/// whose schedule names a destination for this column, and arrivals land
/// at the row their message carries.
class Transform {
 public:
  Transform(const CorePlan& plan, std::size_t t, std::size_t my_col,
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

  std::size_t rounds() const { return rounds_.cycles(); }

  /// This column's action in plan round `round`; rounds are filled in
  /// order.
  Beat fill(std::size_t round) {
    Beat b;
    const auto dc = rounds_.dst_of(round, col_);
    if (dc != sched::kIdle) {
      MCB_CHECK(ptr_[dc] < queue_[dc].size(),
                "send queue " << col_ << "->" << dc << " exhausted");
      const std::size_t r = queue_[dc][ptr_[dc]++];
      const std::size_t dst = table_[col_ * m_ + r];
      b.msg = Message::of(column_[r].key, column_[r].val,
                          static_cast<Word>(dst % m_));
      b.write = static_cast<ChannelId>(col_);
    }
    const auto sc = rounds_.src_of(round, col_);
    if (sc != sched::kIdle) b.read = static_cast<ChannelId>(sc);
    return b;
  }

  /// Lands the element read in plan round `round`.
  void place(std::size_t round, const Proc::ReadResult& got) {
    MCB_CHECK(got.has_value(), "missing transfer on channel "
                                   << rounds_.src_of(round, col_));
    next_[static_cast<std::size_t>((*got)[2])] = KV{(*got)[0], (*got)[1]};
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
};

namespace {

/// Pass `pass` (0 or 1) of the redistribution of ranks [lo, hi) to this
/// processor. A contiguous segment of <= m ranks spans at most two
/// consecutive columns; pass 0 collects the first, pass 1 the second. A
/// representative takes the part that lies in its own column locally.
Pass plan_pass(std::size_t pass, const CorePlan& plan, bool is_rep,
               std::size_t my_col, const std::vector<KV>& column,
               std::size_t n, std::size_t lo, std::size_t hi,
               std::vector<KV>& output) {
  const std::size_t m = plan.m;
  const std::size_t want_col =
      hi == lo ? SIZE_MAX : (pass == 0 ? lo / m : (hi - 1) / m);
  // The in-column slots t whose rank want_col*m + t falls in [lo, hi).
  // Contiguous by construction, and empty when want_col is SIZE_MAX.
  std::size_t t_read0 = m, t_read1 = m;
  if (want_col != SIZE_MAX) {
    const std::size_t col_lo = want_col * m;
    t_read0 = lo > col_lo ? lo - col_lo : 0;
    t_read1 = hi > col_lo ? std::min(m, hi - col_lo) : 0;
    if (t_read1 < t_read0) t_read1 = t_read0;
  }
  if (is_rep && want_col == my_col) {
    for (std::size_t t = t_read0; t < t_read1; ++t) {
      output[want_col * m + t - lo] = column[t];
    }
    t_read0 = t_read1 = m;
  }
  Pass ps;
  // Real (non-dummy) elements in this representative's final column: the
  // dummies are the global minimum, so reals occupy ranks [0, n) and
  // column c holds ranks [c*m, c*m + m).
  ps.w1 = is_rep ? std::min(m, n > my_col * m ? n - my_col * m
                                              : std::size_t{0})
                 : 0;
  ps.r0 = t_read0;
  ps.r1 = t_read1;
  const bool reads = t_read0 < t_read1;
  ps.a = ps.w1 > 0 ? 0 : (reads ? t_read0 : 0);
  ps.b = std::max(ps.w1, reads ? t_read1 : 0);
  ps.wch = static_cast<ChannelId>(my_col);
  ps.rch = static_cast<ChannelId>(want_col);
  ps.src = column.data();
  ps.out = output.data();
  ps.at = want_col * m - lo;  // modulo 2^64; t + at is in [0, hi - lo)
  return ps;
}

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

RunTransform::RunTransform(Proc& self, const CorePlan& plan, std::size_t t,
                           std::size_t my_col, std::vector<KV>& column)
    : StepAwaiter(self),
      column_(&column),
      tr_(std::make_unique<Transform>(plan, t, my_col, column)) {
  self.note_aux(2 * plan.m);
}

RunTransform::~RunTransform() = default;

bool RunTransform::begin(Proc& self) {
  if (tr_->rounds() == 0) return step(self);
  self.act_window(*tr_, 0, tr_->rounds(), 0);
  return true;
}

bool RunTransform::step(Proc&) {
  column_->swap(tr_->next());
  return false;
}

// Phase spans: the odd (local sort) phases cost zero cycles by the model
// — local computation is free — so their spans record a 0-cycle mark; the
// transform phases carry the communication. Phase 9 (local re-sort) is
// unnecessary: the schedules place every element at its exact destination
// row, so after phase 8 the column is already in final order.
bool ColumnsortPhases::begin(Proc& self) {
  MCB_CHECK(column_->size() == plan_->m,
            "column length " << column_->size() << " != m=" << plan_->m);
  self.note_aux(column_->size());
  sort(self, "cs.phase1.sort");
  return plan_->kk > 1 && transform(self);
}

bool ColumnsortPhases::step(Proc& self) {
  tr_->step(self);  // a transformation is one window
  return finish(self) && transform(self);
}

bool ColumnsortPhases::transform(Proc& self) {
  static constexpr const char* kSpans[] = {
      "cs.phase2.transform", "cs.phase4.transform", "cs.phase6.transform",
      "cs.phase8.transform"};
  for (;;) {
    span_.open(self, kSpans[t_]);
    if (tr_.emplace(self, *plan_, t_, my_col_, *column_).begin(self)) {
      return true;
    }
    if (!finish(self)) return false;
  }
}

bool ColumnsortPhases::finish(Proc& self) {
  tr_.reset();
  span_.close();
  switch (t_++) {
    case 0:
      sort(self, "cs.phase3.sort");
      return true;
    case 1:
      sort(self, "cs.phase5.sort");
      return true;
    case 2:
      if (my_col_ != 0) sort(self, "cs.phase7.sort");
      return true;
    default:
      return false;
  }
}

void ColumnsortPhases::sort(Proc& self, const char* span) {
  obs::Span sp(self, span);
  sort_column_desc(*column_);
}

Redistribute::Redistribute(Proc& self, const CorePlan& plan, bool is_rep,
                           std::size_t my_col, const std::vector<KV>& column,
                           std::size_t n, std::size_t lo, std::size_t hi,
                           std::vector<KV>& output)
    : StepAwaiter(self), m_(plan.m) {
  MCB_CHECK(hi >= lo && hi <= n, "segment [" << lo << "," << hi << ") of "
                                             << n);
  MCB_CHECK(hi - lo <= plan.m, "segment longer than a column");
  output.assign(hi - lo, KV{});
  for (std::size_t pass = 0; pass < 2; ++pass) {
    passes_[pass] =
        plan_pass(pass, plan, is_rep, my_col, column, n, lo, hi, output);
  }
}

bool Redistribute::step(Proc& self) {
  if (last_) return false;
  ++pass_;
  open(self);
  return true;
}

void Redistribute::open(Proc& self) {
  // The last window carries the rest of the phase as its trail.
  for (; pass_ < 2; ++pass_) {
    Pass& ps = passes_[pass_];
    if (ps.a == ps.b) {
      idle_ += m_;
      continue;
    }
    last_ = pass_ == 1 || passes_[1].a == passes_[1].b;
    const Cycle lead = std::exchange(idle_, m_ - ps.b) + ps.a;
    self.act_window(ps, lead, ps.b - ps.a,
                    last_ ? idle_ + (pass_ == 0 ? m_ : 0) : 0);
    return;
  }
  last_ = true;
  self.act_sleep(idle_);
}

}  // namespace mcb::algo::detail
