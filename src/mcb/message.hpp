// A broadcast message.
//
// Section 2 of the paper: "A message consists of at most O(log beta) bits,
// where beta is the value of the largest parameter or datum involved in the
// computation." We model this as a small fixed number of 64-bit words — a
// message may carry a constant number of values (an element, a (median,
// count) pair, a (rank, pointer) pair, ...) but never a data block. The
// kMaxWords cap turns any accidental violation of the model into a hard
// error instead of a silently unrealistic algorithm.
#pragma once

#include <array>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>

#include "mcb/types.hpp"

namespace mcb {

class Message {
 public:
  /// Maximum words per message. 4 words = O(1) values, comfortably enough
  /// for every protocol in the paper.
  static constexpr std::size_t kMaxWords = 4;

  Message() = default;

  /// Constructs from 1..kMaxWords words; throws std::invalid_argument beyond.
  Message(std::initializer_list<Word> words);

  /// Builds a message from 1..kMaxWords values without an initializer_list
  /// (std::initializer_list temporaries inside co_await expressions trip a
  /// GCC 12 coroutine bug — use this factory in coroutine code).
  template <typename... Ws>
    requires(sizeof...(Ws) >= 1 && sizeof...(Ws) <= kMaxWords &&
             (std::convertible_to<Ws, Word> && ...))
  static Message of(Ws... ws) {
    Message m;
    m.words_ = {static_cast<Word>(ws)...};
    m.size_ = sizeof...(Ws);
    return m;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bounds-checked word access; throws std::invalid_argument out of range.
  /// Protocol code validating a received message belongs here.
  Word at(std::size_t i) const;

  /// Unchecked word access for hot-path code whose index is structurally
  /// valid (asserts in debug builds only). Use at() on untrusted indices.
  Word operator[](std::size_t i) const {
    assert(i < size_);
    return words_[i];
  }

  /// Appends one word; throws std::invalid_argument past kMaxWords.
  void push(Word w);

  friend bool operator==(const Message&, const Message&) = default;

 private:
  std::array<Word, kMaxWords> words_{};
  std::size_t size_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Message& m);

}  // namespace mcb
