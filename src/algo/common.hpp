// Shared helpers for the distributed algorithms.
#pragma once

#include <coroutine>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
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

// --- stream windows ---------------------------------------------------------
//
// The central baselines and selection's termination stream single words
// over one channel in slots every processor knows in advance, so each side
// of such a stream is one Proc::window. Build the awaiter in its own
// statement: `auto aw = write_window(...); co_await aw;`.

/// Writes values[j] on channel `ch` in cycle lead + j, then sleeps `trail`
/// more cycles.
inline auto write_window(Proc& self, std::span<const Word> values, Cycle lead,
                         ChannelId ch = 0, Cycle trail = 0) {
  return self.window(lead, values.size(), trail, [values, ch](std::size_t j) {
    return Beat{Message::of(values[j]), ch};
  });
}

/// Reads channel `ch` in cycle lead + j into out[j], then sleeps `trail`
/// more cycles.
inline auto read_window(Proc& self, Cycle lead, std::span<Word> out,
                        ChannelId ch = 0, Cycle trail = 0) {
  return self.window(
      lead, out.size(), trail,
      [ch](std::size_t) { return Beat{{}, kNoChannel, ch}; },
      [out](std::size_t j, const Proc::ReadResult& got) {
        MCB_CHECK(got.has_value(), "stream slot " << j << " silent");
        out[j] = got->at(0);
      });
}

/// The collector's side of a channel-0 stream of pool.size() slots in
/// which it owns slots [lo, lo + mine.size()): it writes its own values
/// there, reads every other slot, and ends with slot t's value in pool[t].
inline auto collect_window(Proc& self, std::span<const Word> mine,
                           std::size_t lo, std::vector<Word>& pool) {
  return self.window(
      0, pool.size(), 0,
      [mine, lo, &pool](std::size_t t) {
        if (t < lo || t - lo >= mine.size()) return Beat{{}, kNoChannel, 0};
        pool[t] = mine[t - lo];
        return Beat{Message::of(pool[t]), 0};
      },
      [&pool](std::size_t t, const Proc::ReadResult& got) {
        MCB_CHECK(got.has_value(), "stream slot " << t << " empty");
        pool[t] = got->at(0);
      });
}

}  // namespace mcb::algo
