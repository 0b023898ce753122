// The single-channel Rank-Sort algorithm of Section 6.1.
//
// A group of processors sharing one broadcast channel sorts its distributed
// list in two linear passes:
//
//   pass 1  every element is broadcast once, processor after processor;
//           each processor maintains a rank counter per local element,
//           incremented whenever a larger element is heard. Afterwards each
//           processor knows the (descending, 1-based) global rank of each of
//           its elements.
//   pass 2  elements are broadcast in rank order — the owner of rank r
//           writes in slot r — and collected by their target processors.
//           Slots whose element already sits on its target stay silent.
//
// Complexity: 2*n cycles and at most 2*n messages for a group holding n
// elements; O(n_i) auxiliary storage per processor. Works for arbitrary
// (even or uneven) distributions, and for duplicate values (elements are
// broadcast as (value, owner, index) triples and ordered lexicographically,
// exactly the w.l.o.g. tie-breaking of Section 3).
//
// ranksort_group is a *collective over a group*: every member must co_await
// it in the same cycle, and all members must agree on the group layout.
// Several groups may run the collective concurrently on distinct channels —
// that is precisely how the memory-efficient Columnsort (Section 6.1) sorts
// its virtual columns.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "algo/runner.hpp"
#include "mcb/proc.hpp"

namespace mcb::algo {

/// A contiguous run of processors sharing one channel.
struct GroupSpec {
  ProcId first = 0;        ///< lowest processor id in the group
  std::size_t count = 0;   ///< number of processors
  ChannelId channel = 0;   ///< the group's broadcast channel
};

/// A member's seat in a group sort. Checks the collective's contract (a
/// size for every member, the caller inside the group, `held` elements as
/// declared) and places the member: its output ranks are [first, end), the
/// slots its own elements take when the members broadcast in turn.
struct GroupSeat {
  GroupSeat(const Proc& self, const GroupSpec& grp,
            std::span<const std::size_t> sizes, std::size_t held);
  std::size_t me = 0;     ///< index within the group
  std::size_t n = 0;      ///< the group's elements
  std::size_t first = 0;  ///< first output rank
  std::size_t end = 0;    ///< one past the last
};

/// The collective as a step awaiter (Proc::StepAwaiter), held in the
/// caller's frame: pass 1 and pass 2 are one window each, with this
/// awaiter as their window source.
class [[nodiscard]] RankSort : public Proc::StepAwaiter<RankSort> {
 public:
  RankSort(Proc& self, const GroupSpec& grp,
           std::span<const std::size_t> sizes, std::vector<Word>& data)
      : StepAwaiter(self),
        seat_(self, grp, sizes, data.size()),
        ch_(grp.channel),
        data_(&data) {}

  bool begin(Proc& self);
  bool step(Proc& self);

  /// Beat j of the pass in flight, and the read it lands.
  Beat fill(std::size_t j);
  void place(std::size_t j, const Proc::ReadResult& got);

 private:
  // Raises the rank of every local element smaller than (v, owner, index).
  void bump(Word v, std::size_t owner, std::size_t index);

  GroupSeat seat_;
  ChannelId ch_;
  std::vector<Word>* data_;
  /// rank_[e]: the 1-based descending rank of local element e, counted up
  /// in pass 1.
  std::vector<std::size_t> rank_;
  std::vector<Word> out_;
  /// My elements in emit order: (slot, element index) sorted by slot.
  std::vector<std::pair<std::size_t, std::size_t>> emits_;
  std::size_t next_emit_ = 0;
  std::size_t first_ = 0;  ///< pass 2's window covers slots [first_, last)
  bool pass2_ = false;
};

/// Sorts the group's distributed list descending. `sizes[g]` is member g's
/// element count (known to all members); on return, `data` (the calling
/// member's local list, arbitrary order) holds that member's segment of the
/// descending order, with |data| preserved. `data` must outlive the
/// awaiter.
RankSort ranksort_group(Proc& self, const GroupSpec& grp,
                        std::span<const std::size_t> sizes,
                        std::vector<Word>& data);

/// Standalone driver: sorts `inputs` over the whole network using channel 0
/// only (the paper presents Rank-Sort as a single-channel algorithm).
AlgoResult ranksort(const SimConfig& cfg,
                    const std::vector<std::vector<Word>>& inputs,
                    TraceSink* sink = nullptr);

namespace detail {

/// Every processor's element count, for a group sort of the whole network
/// (each must hold at least one).
std::vector<std::size_t> whole_network_sizes(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs);

/// The standalone drivers: the group sort Sort (RankSort or MergeSort)
/// over the whole network on channel 0.
template <typename Sort>
ProcMain single_channel_program(Proc& self, const GroupSpec& grp,
                                const std::vector<std::size_t>& sizes,
                                const std::vector<Word>& in,
                                std::vector<Word>& out) {
  out = in;
  co_await Sort(self, grp, sizes, out);
}

template <typename Sort>
AlgoResult single_channel_sort(const SimConfig& cfg,
                               const std::vector<std::vector<Word>>& inputs,
                               TraceSink* sink) {
  const std::vector<std::size_t> sizes = whole_network_sizes(cfg, inputs);
  const GroupSpec grp{0, cfg.p, 0};
  return run_network(
      cfg, inputs,
      [&grp, &sizes](Proc& self, const std::vector<Word>& in,
                     std::vector<Word>& out) {
        return single_channel_program<Sort>(self, grp, sizes, in, out);
      },
      sink);
}

}  // namespace detail

}  // namespace mcb::algo
