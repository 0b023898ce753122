// Shared helpers for the distributed algorithms.
#pragma once

#include <coroutine>
#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>
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

}  // namespace mcb::algo
