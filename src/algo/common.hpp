// Shared helpers for the distributed algorithms.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mcb/proc.hpp"
#include "mcb/types.hpp"
#include "util/check.hpp"

namespace mcb::algo {

/// Padding value used for the dummy elements of Sections 5.2 and 7.2. It is
/// smaller than every real element, so after a descending sort all dummies
/// sit at the global tail. Inputs must not contain this value (validated at
/// the algorithm entry points).
inline constexpr Word kDummy = std::numeric_limits<Word>::min();

/// A sortable (key, value) pair. The distributed sorts order by key
/// descending (value as a deterministic tie-break); the value tags along —
/// the selection algorithm sorts (median, count) pairs this way, exactly as
/// Section 8 prescribes.
struct KV {
  Word key = 0;
  Word val = 0;

  friend bool operator==(const KV&, const KV&) = default;
  /// Descending-order comparator (largest first).
  friend bool desc_before(const KV& a, const KV& b) {
    return a.key != b.key ? a.key > b.key : a.val > b.val;
  }
};

/// The precondition selection and select_ranks state for their inputs. On
/// duplicate keys their filter drops every copy of the weighted median but
/// counts one, so they stop with std::invalid_argument naming it as soon as
/// a count disagrees, rather than answer wrong.
inline constexpr std::string_view kDistinctValues =
    "selection requires distinct values";

inline constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Rounds `a` up to a multiple of `b`.
inline constexpr std::size_t round_up(std::size_t a, std::size_t b) {
  return ceil_div(a, b) * b;
}

// --- one-word broadcasts ---------------------------------------------------

/// A one-word broadcast on channel 0 after `idle` cycles: the sender writes
/// `value`, every other processor reads it, and every processor's co_await
/// yields the word. A silent channel stops the run with `what`.
struct WordCast {
  Proc::CycleAwaiter aw;
  Word value;
  const char* what;  ///< nullptr at the sender

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    aw.await_suspend(h);
  }
  Word await_resume() const {
    const Proc::ReadResult got = aw.await_resume();
    if (what == nullptr) return value;
    MCB_CHECK(got.has_value(), what);
    return got->at(0);
  }
};

/// Build it in its own statement: `auto aw = broadcast_word(...); Word w =
/// co_await aw;`.
inline WordCast broadcast_word(Proc& self, bool sends, Word value,
                               const char* what, Cycle idle = 0) {
  if (sends) {
    return {self.cycle_after(idle, WriteOp{0, Message::of(value)},
                             std::nullopt),
            value, nullptr};
  }
  return {self.cycle_after(idle, std::nullopt, ChannelId{0}), 0, what};
}

// --- block streams ---------------------------------------------------------

/// One side of a Stream: `data` moves over channel `ch`, data[j] in slot
/// at + j.
template <typename T>
struct Slots {
  std::span<T> data;
  std::size_t at = 0;
  ChannelId ch = kNoChannel;
};

/// One processor's side of a fixed-slot transfer, the move the sorts and
/// selection are built from: processors broadcast a block in turn on one
/// channel, in slots everyone knows, while a collector reads it (§5.2's
/// gather and double broadcast, §7.2's collection, §8's termination). It
/// writes `send` and reads `recv`; in a slot where it would read the
/// channel it writes, its own word lands in recv.data instead. Its window
/// runs from the first slot either side covers to the last, with `lead`
/// idle cycles before it and `trail` after. A message carries one word for
/// a Word, Message::of(key, val) for a KV. It is a step awaiter — co_await
/// it, or run it in a StepSlot — and a window source: a composite step
/// awaiter opens it with begin(self). Both blocks must outlive the window.
template <typename T>
class [[nodiscard]] Stream : public Proc::StepAwaiter<Stream<T>> {
 public:
  Stream(Proc& self, Slots<const T> send, Slots<T> recv, Cycle before = 0,
         Cycle after = 0)
      : Proc::StepAwaiter<Stream<T>>(self),
        lead(before),
        trail(after),
        src_(send.data.data()),
        dst_(recv.data.data()),
        w0_(send.at),
        wn_(send.data.size()),
        r0_(recv.at),
        rn_(recv.data.size()),
        wc_(send.ch),
        rc_(recv.ch) {}

  bool empty() const { return wn_ == 0 && rn_ == 0; }
  /// The window's slots, [first(), end()).
  std::size_t first() const {
    if (wn_ == 0) return rn_ == 0 ? 0 : r0_;
    return rn_ == 0 ? w0_ : std::min(w0_, r0_);
  }
  std::size_t end() const {
    return std::max(wn_ == 0 ? 0 : w0_ + wn_, rn_ == 0 ? 0 : r0_ + rn_);
  }

  /// Opens the window (with no slots, a sleep of lead + trail); false when
  /// there is nothing to do.
  bool begin(Proc& self) {
    const std::size_t a = first(), beats = end() - a;
    if (lead + beats + trail == 0) return false;
    self.act_window(*this, lead + a, beats, trail);
    return true;
  }
  bool step(Proc&) { return false; }

  Beat fill(std::size_t j) const {
    const std::size_t t = first() + j;
    Beat b;
    const bool reads = t - r0_ < rn_;
    if (t - w0_ < wn_) {
      const T& v = src_[t - w0_];
      if constexpr (std::is_same_v<T, KV>) {
        b.msg = Message::of(v.key, v.val);
      } else {
        b.msg = Message::of(v);
      }
      b.write = wc_;
      if (reads && rc_ == wc_) {
        dst_[t - r0_] = v;
        return b;
      }
    }
    if (reads) b.read = rc_;
    return b;
  }
  void place(std::size_t j, const Proc::ReadResult& got) const {
    const std::size_t t = first() + j;
    MCB_CHECK(got.has_value(),
              "stream slot " << t << " of channel " << rc_ << " silent");
    if constexpr (std::is_same_v<T, KV>) {
      dst_[t - r0_] = KV{(*got)[0], (*got)[1]};
    } else {
      dst_[t - r0_] = (*got)[0];
    }
  }

  Cycle lead;   ///< idle cycles before the window
  Cycle trail;  ///< idle cycles after it

 private:
  const T* src_;
  T* dst_;
  std::size_t w0_, wn_, r0_, rn_;
  ChannelId wc_, rc_;
};

}  // namespace mcb::algo
