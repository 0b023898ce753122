#include "algo/partial_sums.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "algo/common.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace mcb::algo {

const SumOp& SumOp::add() {
  static const SumOp op{[](Word a, Word b) { return a + b; }, 0};
  return op;
}

const SumOp& SumOp::max() {
  static const SumOp op{[](Word a, Word b) { return std::max(a, b); },
                        std::numeric_limits<Word>::min()};
  return op;
}

const SumOp& SumOp::min() {
  static const SumOp op{[](Word a, Word b) { return std::min(a, b); },
                        std::numeric_limits<Word>::max()};
  return op;
}

namespace {

/// Cycles of bottom-up tree level l (fathers at level l+1, k per cycle);
/// top-down level l+1 serves the same fathers and takes as many.
std::size_t level_cycles(std::size_t p2, std::size_t k, std::size_t l) {
  return ceil_div(p2 >> (l + 1), k);
}

/// Sum of level_cycles over the bottom-up levels from..depth-1: the cycles a
/// processor whose subtree tops out below level `from` sleeps through on the
/// way up, and again on the way down. Memoized per (p, k) for the calling
/// thread; the value is returned by copy, so a hosted network with another
/// shape rebuilding the memo cannot pull it from under a suspended caller.
std::size_t idle_levels(std::size_t p, std::size_t k, std::size_t depth,
                        std::size_t from) {
  struct Memo {
    std::size_t p = 0, k = 0;
    std::vector<std::size_t> suffix;  ///< suffix[l] = levels l..depth-1
  };
  thread_local Memo memo;
  if (memo.p != p || memo.k != k) {
    const std::size_t p2 = std::size_t{1} << depth;
    memo.p = p;
    memo.k = k;
    memo.suffix.assign(depth + 1, 0);
    for (std::size_t l = depth; l-- > 0;) {
      memo.suffix[l] = memo.suffix[l + 1] + level_cycles(p2, k, l);
    }
  }
  return memo.suffix[from];
}

}  // namespace

PartialSums::PartialSums(Proc& self, Word a_i, const SumOp& op,
                         PartialSumsOptions opts, bool reduce)
    : StepAwaiter(self),
      p_(static_cast<std::uint32_t>(self.p())),
      k_(static_cast<std::uint32_t>(self.k())),
      i_(static_cast<std::uint32_t>(self.id())),
      op_(&op),
      f_(op.identity),
      depth_(static_cast<std::uint8_t>(std::bit_width(self.p() - 1))),
      with_total_(opts.with_total),
      with_next_(opts.with_next),
      reduce_(reduce) {
  const std::size_t p = p_, i = i_;
  if (p == 1) {
    out_ = {op.identity, a_i, a_i, a_i};
    return;
  }
  top_ = i == 0 ? depth_ : static_cast<std::uint8_t>(std::countr_zero(i));
  // The top-down read is a processor's last action in a plain collective
  // when it sends on no level below top (all its right sons are dummies).
  down_last_ = i != 0 && !with_total_ && !with_next_ &&
               (top_ == 0 || i + 1 >= p);
  // val[l] = combined value of the subtree of node (l, i >> l), l <= top.
  if (top_ >= kNear) deep_ = std::make_unique<Word[]>(top_ + 1);
  Word* v = val();
  std::fill(v, v + top_ + 1, op.identity);
  v[0] = a_i;
  stage_ = Stage::kUp;
  plan_next();
}

/// Plans the action of the current stage, moving past stages in which
/// this processor does not act; at the end checks nothing is left owed.
void PartialSums::plan_next() {
  const SumOp& op = *op_;
  for (;;) {
    switch (stage_) {
      case Stage::kUp:
        if (level_ < top_) {
          // Father simulator (== left son simulator): receive from the
          // right son.
          const std::size_t father = i_ >> (level_ + 1);
          const std::size_t at = father / k_;
          plan(pending_ + at, kNoChannel, 0,
               static_cast<ChannelId>(father % k_), 0,
               levels(level_) - at - 1);
          return;
        }
        if (i_ == 0) {
          out_.total = val()[depth_];
          stage_ = Stage::kDown;  // at level_ == top_
        } else {
          stage_ = Stage::kTopSend;
        }
        break;
      case Stage::kTopSend:
      case Stage::kTopRead: {
        // Right son at level top: send the subtree value to the father's
        // simulator, sleep through the levels above twice, then receive
        // F in top-down level top + 1 — the same father, channel and
        // in-level cycle.
        const std::size_t father = i_ >> (top_ + 1);
        const std::size_t at = father / k_;
        const auto ch = static_cast<ChannelId>(father % k_);
        const std::size_t cycles = levels(top_);
        if (stage_ == Stage::kTopSend) {
          // Owed after the send: the rest of this level, the levels
          // above it up and down, and `at` cycles into top-down level
          // top + 1.
          plan(pending_ + at, ch, val()[top_], kNoChannel, 0,
               (cycles - at - 1) + 2 * idle(top_ + 1) + at);
          return;
        }
        // The rest of level top, and of levels top..1 down as the trail.
        const std::size_t rest =
            (cycles - at - 1) + (down_last_ ? idle(0) - idle(top_) : 0);
        plan(pending_, kNoChannel, 0, ch, down_last_ ? rest : 0,
             down_last_ ? 0 : rest);
        return;
      }
      case Stage::kDown: {
        // Father: send F ⊕ L to the right son, unless the right subtree
        // is entirely dummy (its simulator would not exist). F is
        // unchanged for the left son (== this processor).
        while (level_ >= 1 && i_ + (std::size_t{1} << (level_ - 1)) >= p_) {
          pending_ += levels(level_ - 1);
          --level_;
        }
        if (level_ == 0) {
          out_.before = f_;
          out_.self = op.combine(f_, val()[0]);
          stage_ = Stage::kTotal;
          break;
        }
        const std::size_t cycles = levels(level_ - 1);
        const std::size_t father = i_ >> level_;
        const std::size_t at = father / k_;
        const bool last = !with_total_ && !with_next_ && level_ == 1;
        plan(pending_ + at, static_cast<ChannelId>(father % k_),
             op.combine(f_, val()[level_ - 1]), kNoChannel,
             last ? cycles - at - 1 : 0, last ? 0 : cycles - at - 1);
        return;
      }
      case Stage::kTotal:
        if (!with_total_) {
          stage_ = Stage::kNextSend;
          break;
        }
        plan(pending_, i_ == 0 ? 0 : kNoChannel, out_.total,
             i_ == 0 ? kNoChannel : 0, 0, 0);
        return;
      case Stage::kNextSend:
      case Stage::kNextRead: {
        // P_{i+1} tells P_i its inclusive prefix; O(p/k) cycles, p-1
        // messages. P_i sends in exchange cycle (i-1)/k and reads in
        // cycle i/k — one action when they coincide — and sleeps through
        // the rest.
        if (!with_next_) {
          stage_ = Stage::kDone;
          break;
        }
        const std::size_t cycles = ceil_div(p_ - 1, k_);
        const bool reads = i_ + 1 < p_;
        const std::size_t read_at = i_ / k_;
        const auto read_ch = static_cast<ChannelId>(i_ % k_);
        if (stage_ == Stage::kNextSend) {
          out_.next = out_.self;  // correct for the last processor
          if (i_ == 0) {
            stage_ = Stage::kNextRead;
            break;
          }
          const std::size_t send_at = (i_ - 1) / k_;
          const bool read_too = reads && read_at == send_at;
          const bool last = !reads || read_too;
          plan(pending_ + send_at, static_cast<ChannelId>((i_ - 1) % k_),
               out_.self, read_too ? read_ch : kNoChannel,
               last ? cycles - send_at - 1 : 0, 0);
          return;
        }
        // Exchange cycles already accounted for by the send.
        const std::size_t t = i_ >= 1 ? (i_ - 1) / k_ + 1 : 0;
        if (!reads || read_at < t) {
          stage_ = Stage::kDone;
          break;
        }
        plan(pending_ + read_at - t, kNoChannel, 0, read_ch,
             cycles - read_at - 1, 0);
        return;
      }
      case Stage::kDone:
        MCB_CHECK(pending_ == 0, "P" << i_ + 1 << " left " << pending_
                                     << " cycles of the collective unslept");
        return;
    }
  }
}

/// Takes the planned action's read and plans the next action.
void PartialSums::consume(const Proc::ReadResult& got) {
  pending_ = after_;
  switch (stage_) {
    case Stage::kUp: {
      // Silence = dummy right subtree (p not a power of two) = identity.
      Word* v = val();
      v[level_ + 1] = got ? op_->combine(v[level_], got->at(0)) : v[level_];
      ++level_;
      break;
    }
    case Stage::kTopSend:
      stage_ = Stage::kTopRead;
      break;
    case Stage::kTopRead:
      MCB_CHECK(got.has_value(), "top-down message missing at P" << i_ + 1);
      f_ = got->at(0);
      level_ = down_last_ ? 0 : top_;
      stage_ = Stage::kDown;
      break;
    case Stage::kDown:
      --level_;
      break;
    case Stage::kTotal:
      if (i_ != 0) {
        MCB_CHECK(got.has_value(), "total broadcast missing at P" << i_ + 1);
        out_.total = got->at(0);
      }
      stage_ = Stage::kNextSend;
      break;
    case Stage::kNextSend:
    case Stage::kNextRead:
      if (read_ != kNoChannel) {
        MCB_CHECK(got.has_value(), "neighbour prefix missing at P" << i_ + 1);
        out_.next = got->at(0);
      }
      stage_ = stage_ == Stage::kNextSend ? Stage::kNextRead : Stage::kDone;
      break;
    case Stage::kDone:
      break;
  }
  plan_next();
}

std::size_t PartialSums::levels(std::size_t l) const {
  return level_cycles(std::size_t{1} << depth_, k_, l);
}

std::size_t PartialSums::idle(std::size_t from) const {
  return idle_levels(p_, k_, depth_, from);
}

void PartialSums::plan(Cycle idle, ChannelId write, Word word, ChannelId read,
                       Cycle trail, Cycle after) {
  idle_ = idle;
  write_ = write;
  word_ = word;
  read_ = read;
  trail_ = trail;
  after_ = after;
}

bool PartialSums::begin(Proc& self) {
  if (reduce_) reduce_span_.open(self, "reduce");
  span_.open(self, "partial-sums");
  // Tree values the paper charges this processor: one per level.
  if (p_ > 1) self.note_aux(std::size_t{depth_} + 1);
  return act(self);
}

bool PartialSums::step(Proc& self) {
  consume(self.take_read());
  return act(self);
}

/// Opens the planned action, or ends the collective's spans once the walk
/// is done.
bool PartialSums::act(Proc& self) {
  if (stage_ == Stage::kDone) {
    span_.close();
    reduce_span_.close();
    return false;
  }
  self.act_window(*this, idle_, 1, trail_);
  return true;
}

}  // namespace mcb::algo
