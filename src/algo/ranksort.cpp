#include "algo/ranksort.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// Lexicographic comparison of (value, owner, index) triples — the paper's
/// tie-breaking device making all elements distinct.
bool triple_less(Word v1, std::size_t o1, std::size_t i1, Word v2,
                 std::size_t o2, std::size_t i2) {
  if (v1 != v2) return v1 < v2;
  if (o1 != o2) return o1 < o2;
  return i1 < i2;
}

}  // namespace

GroupSeat::GroupSeat(const Proc& self, const GroupSpec& grp,
                     std::span<const std::size_t> sizes, std::size_t held)
    : me(self.id() - grp.first) {
  MCB_REQUIRE(sizes.size() == grp.count, "sizes for " << sizes.size()
                                                      << " members, group of "
                                                      << grp.count);
  MCB_CHECK(self.id() >= grp.first && me < grp.count,
            "P" << self.id() + 1 << " outside group");
  MCB_REQUIRE(held == sizes[me],
              "local list size " << held << " != declared " << sizes[me]);
  n = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  const auto before = sizes.first(me);
  first = std::accumulate(before.begin(), before.end(), std::size_t{0});
  end = first + sizes[me];
}

RankSort ranksort_group(Proc& self, const GroupSpec& grp,
                        std::span<const std::size_t> sizes,
                        std::vector<Word>& data) {
  return RankSort(self, grp, sizes, data);
}

bool RankSort::begin(Proc& self) {
  // --- pass 1: broadcast everything once; count larger elements -----------
  // Member g broadcasts its elements in slots [first, end) of its seat.
  // rank_[e] starts at 1; everyone (sender included) bumps the rank of
  // every local element smaller than the one broadcast in a slot.
  rank_.assign(data_->size(), 1);
  self.note_aux(rank_.size());
  if (seat_.n == 0) return step(self);
  self.act_window(*this, 0, seat_.n, 0);
  return true;
}

bool RankSort::step(Proc& self) {
  if (pass2_) {
    *data_ = std::move(out_);
    return false;
  }
  // --- pass 2: emit in rank order; targets collect their segments ---------
  // A pointer walk over emits_ keeps pass-2 bookkeeping at O(n_i) words (a
  // whole-group slot map would be O(n) per processor).
  pass2_ = true;
  const std::vector<Word>& data = *data_;
  out_.resize(seat_.end - seat_.first);
  emits_.resize(data.size());
  for (std::size_t e = 0; e < data.size(); ++e) {
    const std::size_t slot = rank_[e] - 1;
    emits_[e] = {slot, e};
    // An element already in its target slot stays put, silently.
    if (slot >= seat_.first && slot < seat_.end) {
      out_[slot - seat_.first] = data[e];
    }
  }
  seq::intro_sort(std::span<std::pair<std::size_t, std::size_t>>(emits_));
  self.note_aux(rank_.size() + out_.size() + emits_.size());

  // One window over my action slots [first_, last): the emit slots and the
  // target window, with idle beats between them.
  first_ = seat_.first < seat_.end ? seat_.first : seat_.n;
  std::size_t last = seat_.end;
  if (!emits_.empty()) {
    first_ = std::min(first_, emits_.front().first);
    last = std::max(last, emits_.back().first + 1);
  }
  if (first_ > last) first_ = last;
  if (seat_.n == 0) return step(self);
  self.act_window(*this, first_, last - first_, seat_.n - last);
  return true;
}

void RankSort::bump(Word v, std::size_t owner, std::size_t index) {
  const std::vector<Word>& data = *data_;
  for (std::size_t e = 0; e < data.size(); ++e) {
    if (triple_less(data[e], seat_.me, e, v, owner, index)) ++rank_[e];
  }
}

Beat RankSort::fill(std::size_t j) {
  const std::vector<Word>& data = *data_;
  if (!pass2_) {
    if (j < seat_.first || j >= seat_.end) return Beat{{}, kNoChannel, ch_};
    const std::size_t bi = j - seat_.first;
    bump(data[bi], seat_.me, bi);
    return Beat{Message::of(data[bi], seat_.me, bi), ch_};
  }
  const std::size_t slot = first_ + j;
  const bool emit =
      next_emit_ < emits_.size() && emits_[next_emit_].first == slot;
  const std::size_t e = emit ? emits_[next_emit_++].second : 0;
  if (slot >= seat_.first && slot < seat_.end) {
    return emit ? Beat{} : Beat{{}, kNoChannel, ch_};
  }
  return emit ? Beat{Message::of(data[e]), ch_} : Beat{};
}

void RankSort::place(std::size_t j, const Proc::ReadResult& got) {
  if (!pass2_) {
    MCB_CHECK(got.has_value(), "pass-1 slot " << j << " silent");
    bump(got->at(0), static_cast<std::size_t>(got->at(1)),
         static_cast<std::size_t>(got->at(2)));
    return;
  }
  MCB_CHECK(got.has_value(), "pass-2 slot " << first_ + j << " silent");
  out_[first_ + j - seat_.first] = got->at(0);
}

AlgoResult ranksort(const SimConfig& cfg,
                    const std::vector<std::vector<Word>>& inputs,
                    TraceSink* sink) {
  return detail::single_channel_sort<RankSort>(cfg, inputs, sink);
}

std::vector<std::size_t> detail::whole_network_sizes(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  std::vector<std::size_t> sizes(cfg.p);
  for (std::size_t i = 0; i < cfg.p; ++i) {
    MCB_REQUIRE(!inputs[i].empty(), "P" << i + 1 << " holds no elements");
    sizes[i] = inputs[i].size();
  }
  return sizes;
}

}  // namespace mcb::algo
