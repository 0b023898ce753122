#include "algo/columnsort_core.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>

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

/// The two passes of the redistribution of ranks [lo, hi) to this
/// processor, as Streams with the phase's idle cycles as their leads and
/// trails. A contiguous segment of <= m ranks spans at most two
/// consecutive columns; pass 0 collects the part in the first, pass 1 the
/// part in the second, each from its column's channel while a
/// representative writes its own column's real prefix on its channel. A
/// representative reading its own column takes that part locally, as the
/// stream's own words.
std::array<Stream<KV>, 2> plan_passes(Proc& self, const CorePlan& plan,
                                      bool is_rep, std::size_t my_col,
                                      const std::vector<KV>& column,
                                      std::size_t n, std::size_t lo,
                                      std::size_t hi,
                                      std::vector<KV>& output) {
  MCB_CHECK(hi >= lo && hi <= n, "segment [" << lo << "," << hi << ") of "
                                             << n);
  MCB_CHECK(hi - lo <= plan.m, "segment longer than a column");
  output.assign(hi - lo, KV{});
  const std::size_t m = plan.m;
  // Real (non-dummy) elements in this representative's final column: the
  // dummies are the global minimum, so reals occupy ranks [0, n) and
  // column c holds ranks [c*m, c*m + m).
  const std::size_t reals =
      is_rep ? std::min(m, n > my_col * m ? n - my_col * m : std::size_t{0})
             : 0;
  const Slots<const KV> send{std::span(column).first(reals), 0,
                             static_cast<ChannelId>(my_col)};
  // The pass that reads the column holding `rank`: its in-column slots
  // [t0, t1) are those whose rank col*m + t falls in [lo, hi).
  const auto pass = [&](std::size_t rank) {
    if (hi == lo) return Stream<KV>(self, send, {});
    const std::size_t col = rank / m, col_lo = col * m;
    const std::size_t t0 = lo > col_lo ? lo - col_lo : 0;
    const std::size_t t1 = std::min(m, hi - col_lo);
    return Stream<KV>(self, send,
                      {std::span(output).subspan(col_lo + t0 - lo, t1 - t0),
                       t0, static_cast<ChannelId>(col)});
  };
  std::array<Stream<KV>, 2> ps = {pass(lo), pass(hi - 1)};
  // Each pass lasts m cycles. The last window carries the rest of the
  // phase as its trail; with no window at all, pass 1's empty stream
  // sleeps through both.
  if (ps[0].empty()) {
    ps[1].lead = m;
  } else {
    ps[1].lead = m - ps[0].end();
    if (ps[1].empty()) ps[0].trail = 2 * m - ps[0].end();
  }
  ps[1].trail = m - ps[1].end();
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
  const std::span<KV> v(column);
  const auto desc = [](const KV& a, const KV& b) { return desc_before(a, b); };
  if (v.size() < kRadixMinColumn) {
    seq::sort_by_runs(v, desc);
    return;
  }
  if (seq::merge_runs(v, desc)) return;
  // Descending (key, val) is ascending complemented offset-binary words:
  // kDummy, the least key, becomes the largest word and sorts last.
  seq::radix_sort(v, [](const KV& x) {
    constexpr auto kSign = std::uint64_t{1} << 63;
    return std::array<std::uint64_t, 2>{
        ~(static_cast<std::uint64_t>(x.key) ^ kSign),
        ~(static_cast<std::uint64_t>(x.val) ^ kSign)};
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
    : StepAwaiter(self),
      passes_(plan_passes(self, plan, is_rep, my_col, column, n, lo, hi,
                          output)) {}

}  // namespace mcb::algo::detail
