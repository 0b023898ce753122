// The Partial-Sums collective of Section 7.1.
//
// Given a value a_i at each processor P_i and a commutative, associative
// operator ⊕, computes at every processor the prefix a_1 ⊕ ... ⊕ a_i (and
// optionally the neighbouring prefix and the total). Implemented exactly as
// the paper describes: Vishkin's tree machine simulated level by level —
// bottom-up combine, top-down prefix distribution — with each tree node
// simulated by the processor that simulates its left son, so only
// father/right-son messages are sent. Levels near the leaves batch their
// messages k at a time over the channels; the top log k levels take one
// cycle each.
//
// Complexity: O(p/k + log k) cycles and O(p) messages, matching the paper.
// Host cost: processor i acts only at the countr_zero(i) + 1 tree levels it
// simulates and sleeps through the rest in one suspension per action, so
// the collective is O(p) host work in total (docs/ENGINE.md). It is a step
// awaiter (Proc::StepAwaiter): the walk lives in the caller's frame, and
// the engine steps it from one action to the next.
//
// This is a *collective*: every processor of the network must co_await it
// in the same cycle, like an MPI collective. General p is supported (the
// conceptual tree is padded to a power of two; dummy nodes simply never
// write, and the detectable silence stands in for the identity value).
#pragma once

#include <cstdint>
#include <memory>

#include "mcb/proc.hpp"
#include "mcb/types.hpp"
#include "obs/span.hpp"

namespace mcb::algo {

/// The ⊕ operator with its identity element. Must be commutative and
/// associative; both sides only ever see values produced by `a_i`s and ⊕.
struct SumOp {
  Word (*combine)(Word, Word) = nullptr;
  Word identity = 0;

  /// The stock operators, as shared instances: partial_sums holds its
  /// operator by reference across suspensions, so `auto ps =
  /// partial_sums(self, a, SumOp::add()); co_await ps;` must not leave it
  /// referring to a destroyed temporary.
  static const SumOp& add();
  static const SumOp& max();
  static const SumOp& min();
};

struct PartialSumsOptions {
  bool with_total = false;  ///< broadcast the total to all processors
  bool with_next = false;   ///< also obtain the successor's inclusive prefix
};

struct PartialSumsResult {
  Word before = 0;  ///< a_1 ⊕ ... ⊕ a_{i-1}  (identity for P_1)
  Word self = 0;    ///< a_1 ⊕ ... ⊕ a_i
  Word next = 0;    ///< a_1 ⊕ ... ⊕ a_{i+1}  (== self for P_p; needs with_next)
  Word total = 0;   ///< a_1 ⊕ ... ⊕ a_p       (needs with_total)
};

/// The collective, as one processor's walk through its fixed schedule: a
/// step awaiter whose co_await yields the PartialSumsResult. Processor i
/// simulates node (l, i >> l) iff 2^l | i, i.e. at levels 0..top, and acts
/// only there. Bottom-up it receives its right son's subtree value at
/// every level below top and sends its own to the father at top; top-down
/// it receives F at top + 1 and sends to its right sons at top..1. P_1
/// simulates the root (top = depth). Every other level is idle for it, and
/// the idle levels above top are one contiguous stretch of the schedule
/// (the last levels up, the first levels down), so a processor costs
/// O(top) host work, not O(log p).
///
/// Idle cycles owed to the schedule but not yet slept are `pending_`.
/// Level l lasts level_cycles(l) cycles and a processor acts in at most
/// one of them, at in-level cycle `at`; each action sleeps out the owed
/// cycles as its lead (a one-beat window), and the rest of its level
/// becomes owed. A processor's last action carries the rest of the
/// collective as its trailing idle instead.
class [[nodiscard]] PartialSums : public Proc::StepAwaiter<PartialSums> {
 public:
  /// `a_i` is this processor's input value. `op` must outlive the walk.
  PartialSums(Proc& self, Word a_i, const SumOp& op,
              PartialSumsOptions opts = {})
      : PartialSums(self, a_i, op, opts, false) {}

  bool begin(Proc& self);
  bool step(Proc& self);
  const PartialSumsResult& result() const { return out_; }
  /// The planned action, as a one-beat window.
  Beat fill(std::size_t) const {
    return Beat{Message::of(word_), write_, read_};
  }
  const PartialSumsResult& await_resume() const { return out_; }

 protected:
  /// `reduce`: the walk runs under a "reduce" span (algo/collectives.hpp).
  PartialSums(Proc& self, Word a_i, const SumOp& op, PartialSumsOptions opts,
              bool reduce);

 private:
  /// Tree values held inline; deeper processors (one in 2^kNear) use the
  /// heap.
  static constexpr std::size_t kNear = 4;

  enum class Stage : std::uint8_t {
    kUp,        ///< bottom-up level level_ < top: read the right son
    kTopSend,   ///< bottom-up level top: send the subtree value up
    kTopRead,   ///< top-down level top + 1: read F
    kDown,      ///< top-down level level_ >= 1: send F ⊕ L to the right son
    kTotal,     ///< optional total broadcast
    kNextSend,  ///< optional neighbour exchange: send the prefix left
    kNextRead,  ///< ... and read the right neighbour's, if not read yet
    kDone,
  };

  Word* val() { return deep_ ? deep_.get() : near_; }
  std::size_t levels(std::size_t l) const;
  std::size_t idle(std::size_t from) const;
  void plan(Cycle idle, ChannelId write, Word word, ChannelId read,
            Cycle trail, Cycle after);
  void plan_next();
  void consume(const Proc::ReadResult& got);
  bool act(Proc& self);

  std::uint32_t p_, k_, i_;
  const SumOp* op_;
  PartialSumsResult out_;
  Word f_;  ///< combined value of everything left of the current node
  Cycle pending_ = 0;
  // The planned action: sleep idle_, write word_ on write_ and/or read
  // read_, sleep trail_; then after_ cycles are owed.
  Cycle idle_ = 0, trail_ = 0, after_ = 0;
  Word word_ = 0;
  ChannelId write_ = kNoChannel, read_ = kNoChannel;
  std::uint8_t depth_, top_ = 0, level_ = 0;
  Stage stage_ = Stage::kDone;
  bool with_total_, with_next_, reduce_, down_last_ = false;
  Word near_[kNear] = {};
  std::unique_ptr<Word[]> deep_;
  obs::Span reduce_span_, span_;
};

/// The collective: `co_await partial_sums(self, a_i, op, opts)`.
inline PartialSums partial_sums(Proc& self, Word a_i, const SumOp& op,
                                PartialSumsOptions opts = {}) {
  return PartialSums(self, a_i, op, opts);
}

}  // namespace mcb::algo
