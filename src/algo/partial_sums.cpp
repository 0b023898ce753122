#include "algo/partial_sums.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

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

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

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

Task<PartialSumsResult> partial_sums(Proc& self, Word a_i, const SumOp& op,
                                     PartialSumsOptions opts) {
  const std::size_t p = self.p();
  const std::size_t k = self.k();
  const std::size_t i = self.id();
  const std::size_t depth = std::bit_width(p - 1);  // ceil(log2 p)
  const std::size_t p2 = std::size_t{1} << depth;

  obs::Span sp(self, "partial-sums");
  PartialSumsResult out;
  if (p == 1) {
    out.before = op.identity;
    out.self = a_i;
    out.next = a_i;
    out.total = a_i;
    co_return out;
  }

  // Processor i simulates node (l, i >> l) iff 2^l | i, i.e. at levels
  // 0..top, and acts only there. Bottom-up it receives its right son's
  // subtree value at every level below top and sends its own to the father
  // at top; top-down it receives F at top + 1 and sends to its right sons
  // at top..1. P_1 simulates the root (top = depth). Every other level is
  // idle for it, and the idle levels above top are one contiguous stretch
  // of the schedule (the last levels up, the first levels down), so a
  // processor costs O(top) host work, not O(log p).
  const std::size_t top =
      i == 0 ? depth : static_cast<std::size_t>(std::countr_zero(i));

  // val[l] = combined value of the subtree of node (l, i >> l).
  std::vector<Word> val(depth + 1, op.identity);
  val[0] = a_i;
  self.note_aux(val.size());

  // Idle cycles owed to the schedule but not yet slept. Level l lasts
  // level_cycles(l) cycles and a processor acts in at most one of them, at
  // in-level cycle `at`; each action sleeps out the owed cycles in the same
  // suspension (cycle_after), and the rest of its level becomes owed. A
  // processor's last action carries the rest of the collective as its
  // trailing idle instead. The per-level step is written inline rather
  // than as a helper coroutine: a helper frame per processor per level
  // dominated the simulator's allocation profile. Each awaiter is built in
  // its own statement so the message temporaries stay out of the coroutine
  // frame (docs/ENGINE.md).
  std::size_t pending = 0;
  const bool plain = !opts.with_total && !opts.with_next;

  // --- bottom-up phase ------------------------------------------------------
  for (std::size_t l = 0; l < top; ++l) {
    // Father simulator (== left son simulator): receive from the right son.
    const std::size_t father = i >> (l + 1);
    const std::size_t at = father / k;
    auto aw = self.cycle_after(pending + at, std::nullopt,
                               static_cast<ChannelId>(father % k));
    const Proc::ReadResult got = co_await aw;
    // Silence = dummy right subtree (p not a power of two) = identity.
    val[l + 1] = got ? op.combine(val[l], got->at(0)) : val[l];
    pending = level_cycles(p2, k, l) - at - 1;
  }

  // --- the turn at the top: up to the father, back down -------------------
  // F = combined value of everything left of the current node's subtree.
  // The top-down read is a processor's last action in a plain collective
  // when it sends on no level below top (all its right sons are dummies).
  const bool down_last = i != 0 && plain && (top == 0 || i + 1 >= p);
  Word f = op.identity;
  if (i == 0) {
    out.total = val[depth];
  } else {
    // Right son at level top: send the subtree value to the father's
    // simulator, sleep through the levels above twice, then receive F in
    // top-down level top + 1 — the same father, channel and in-level cycle.
    const std::size_t father = i >> (top + 1);
    const std::size_t at = father / k;
    const auto ch = static_cast<ChannelId>(father % k);
    const std::size_t cycles = level_cycles(p2, k, top);
    auto up = self.cycle_after(pending + at, WriteOp{ch, Message::of(val[top])},
                               std::nullopt);
    co_await up;
    // The rest of this level, the levels above it up and down, and `at`
    // cycles into top-down level top + 1.
    pending = (cycles - at - 1) + 2 * idle_levels(p, k, depth, top + 1) + at;
    // The rest of level top, and of levels top..1 down as the trail.
    const std::size_t rest =
        (cycles - at - 1) +
        (down_last
             ? idle_levels(p, k, depth, 0) - idle_levels(p, k, depth, top)
             : 0);
    auto down =
        self.cycle_after(pending, std::nullopt, ch, down_last ? rest : 0);
    const Proc::ReadResult got = co_await down;
    MCB_CHECK(got.has_value(), "top-down message missing at P" << i + 1);
    f = got->at(0);
    pending = down_last ? 0 : rest;
  }

  // --- top-down phase -------------------------------------------------------
  for (std::size_t l = down_last ? 0 : top; l >= 1; --l) {
    // Father: send F ⊕ L to the right son, unless the right subtree is
    // entirely dummy (its simulator would not exist). F is unchanged for
    // the left son (== this processor).
    const std::size_t cycles = level_cycles(p2, k, l - 1);
    if (i + (std::size_t{1} << (l - 1)) >= p) {
      pending += cycles;
      continue;
    }
    const std::size_t father = i >> l;
    const std::size_t at = father / k;
    const bool last = plain && l == 1;
    auto aw = self.cycle_after(
        pending + at,
        WriteOp{static_cast<ChannelId>(father % k),
                Message::of(op.combine(f, val[l - 1]))},
        std::nullopt, last ? cycles - at - 1 : 0);
    co_await aw;
    pending = last ? 0 : cycles - at - 1;
  }

  out.before = f;
  out.self = op.combine(f, a_i);

  // --- optional total broadcast --------------------------------------------
  if (opts.with_total) {
    auto aw = i == 0 ? self.cycle_after(pending,
                                        WriteOp{0, Message::of(out.total)},
                                        std::nullopt)
                     : self.cycle_after(pending, std::nullopt, ChannelId{0});
    const Proc::ReadResult got = co_await aw;
    pending = 0;
    if (i != 0) {
      MCB_CHECK(got.has_value(), "total broadcast missing at P" << i + 1);
      out.total = got->at(0);
    }
  }

  // --- optional neighbour exchange -------------------------------------
  // P_{i+1} tells P_i its inclusive prefix; O(p/k) cycles, p-1 messages.
  // P_i sends in exchange cycle (i-1)/k and reads in cycle i/k — one cycle
  // when they coincide — and sleeps through the rest.
  if (opts.with_next) {
    out.next = out.self;  // correct for the last processor
    const std::size_t cycles = ceil_div(p - 1, k);
    const bool reads = i + 1 < p;
    const std::size_t read_at = i / k;
    std::size_t t = 0;  // exchange cycles accounted for
    if (i >= 1) {
      const std::size_t send_at = (i - 1) / k;
      const bool read_too = reads && read_at == send_at;
      const bool last = !reads || read_too;
      auto aw = self.cycle_after(
          pending + send_at,
          WriteOp{static_cast<ChannelId>((i - 1) % k), Message::of(out.self)},
          read_too ? std::optional<ChannelId>(static_cast<ChannelId>(i % k))
                   : std::nullopt,
          last ? cycles - send_at - 1 : 0);
      const Proc::ReadResult got = co_await aw;
      if (read_too) {
        MCB_CHECK(got.has_value(), "neighbour prefix missing at P" << i + 1);
        out.next = got->at(0);
      }
      pending = 0;
      t = send_at + 1;
    }
    if (reads && read_at >= t) {
      auto aw = self.cycle_after(pending + read_at - t, std::nullopt,
                                 static_cast<ChannelId>(i % k),
                                 cycles - read_at - 1);
      const Proc::ReadResult got = co_await aw;
      MCB_CHECK(got.has_value(), "neighbour prefix missing at P" << i + 1);
      out.next = got->at(0);
      pending = 0;
    }
  }

  MCB_CHECK(pending == 0, "P" << i + 1 << " left " << pending
                              << " cycles of the collective unslept");
  co_return out;
}

}  // namespace mcb::algo
