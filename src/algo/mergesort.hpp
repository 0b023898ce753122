// The single-channel distributed Merge-Sort of Section 6.1.
//
// Each processor first sorts its local list. The processors then maintain a
// *distributed linked list* of their current top (largest unplaced)
// elements, sorted descending: each processor knows its own top element, a
// pointer to the next smaller listed top, and its rank in the list. In each
// round the head of the list (rank 1) moves its top to that element's
// target processor; to keep memory constant, the target evicts its smallest
// remaining element back to the head ("replacement"); the head then
// re-inserts its new top into the linked list with one broadcast and one
// reply.
//
// Round structure (4 cycles, fixed, so the whole group stays in lockstep):
//   C1  head -> target: the next-largest element (placed at output slot r)
//   C2  target -> head: replacement (silence when the target is the head,
//       holds fewer than two unplaced elements, or has none)
//   C3  head broadcast: its new top, for insertion (silence when empty)
//   C4  P_b -> head: insertion point (new rank + predecessor's pointer);
//       silence means the new top is the global maximum (head keeps its
//       pointer, which by the only-heads-are-removed invariant is exactly
//       the current rank-1 top)
//
// The initial linked list is built by 3-cycle insertions, one member after
// another (the third cycle lets a demoted head hand its top to a new global
// maximum, which otherwise would not know its successor).
//
// Complexity for a group holding n elements: O(n) cycles and messages, and
// O(1) auxiliary storage per processor — the memory claim this module
// exists to demonstrate (Rank-Sort needs O(n_i) counters).
//
// Duplicate values are handled by the paper's w.l.o.g. triple trick:
// elements travel as (value, owner, serial) keys ordered lexicographically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/ranksort.hpp"  // GroupSpec
#include "algo/runner.hpp"
#include "mcb/proc.hpp"

namespace mcb::algo {

/// The collective as a step awaiter (Proc::StepAwaiter), held in the
/// caller's frame. It opens one one-beat action per cycle: each step
/// lands the read of the cycle that ended (land) and opens the next one
/// (act). The linked-list state below is the whole of a member's memory
/// beyond its elements.
class [[nodiscard]] MergeSort : public Proc::StepAwaiter<MergeSort> {
 public:
  /// Globally unique element identity: (value, owner, serial), ordered
  /// lexicographically — the paper's distinctness device.
  struct Key {
    Word value = 0;
    Word owner = -1;  ///< -1 encodes the null pointer
    Word serial = 0;

    bool null() const { return owner < 0; }
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  MergeSort(Proc& self, const GroupSpec& grp,
            std::span<const std::size_t> sizes, std::vector<Word>& data)
      : StepAwaiter(self),
        seat_(self, grp, sizes, data.size()),
        grp_(grp),
        data_(&data) {}

  bool begin(Proc& self);
  bool step(Proc& self) {
    land(self);
    ++cycle_;
    return act(self);
  }

  /// The one beat of the cycle in flight.
  Beat fill(std::size_t) const { return beat_; }

 private:
  // Opens cycle cycle_, or finishes the sort (false) after the last one.
  bool act(Proc& self);
  // Takes in the read of cycle cycle_.
  void land(Proc& self);
  // Opens a one-beat action writing `msg` on the group's channel, or
  // reading it.
  void write(Proc& self, const Message& msg);
  void read(Proc& self);
  // Records the auxiliary storage beyond the element capacity.
  void note(Proc& self);

  GroupSeat seat_;
  GroupSpec grp_;
  std::vector<Word>* data_;

  /// Remaining (unplaced) elements as keys, sorted descending; front = top.
  std::vector<Key> remaining_;
  std::vector<Word> out_;
  Word next_serial_ = 0;
  // Linked-list state.
  bool listed_ = false;
  std::size_t rank_ = 0;  ///< 1-based when listed
  Key pointer_;           ///< next smaller listed top

  // The cycle in flight: 3 per member of construction, then 4 per round.
  std::size_t cycle_ = 0;
  std::uint8_t kind_ = 0;  ///< what the cycle in flight does
  bool reads_ = false;     ///< whether it reads
  Beat beat_;
  // This member's part in the insertion or round in flight.
  Key cand_;                ///< the top being inserted
  bool head_ = false;       ///< head of the list (a round) / demoted head
  bool target_ = false;     ///< the round's target
  bool inserting_ = false;  ///< inserts its top
  bool pb_ = false;         ///< replies with the insertion point
};

/// Sorts the group's distributed list descending; same collective contract
/// as ranksort_group (all members co_await together; `sizes` known to all).
MergeSort mergesort_group(Proc& self, const GroupSpec& grp,
                          std::span<const std::size_t> sizes,
                          std::vector<Word>& data);

/// Standalone driver over the whole network on channel 0.
AlgoResult mergesort(const SimConfig& cfg,
                     const std::vector<std::vector<Word>>& inputs,
                     TraceSink* sink = nullptr);

}  // namespace mcb::algo
