#include "algo/ranksort.hpp"

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

Task<void> ranksort_group(Proc& self, const GroupSpec& grp,
                          std::span<const std::size_t> sizes,
                          std::vector<Word>& data) {
  MCB_REQUIRE(sizes.size() == grp.count, "sizes for " << sizes.size()
                                                      << " members, group of "
                                                      << grp.count);
  const std::size_t me = self.id() - grp.first;
  MCB_CHECK(self.id() >= grp.first && me < grp.count,
            "P" << self.id() + 1 << " outside group");
  MCB_REQUIRE(data.size() == sizes[me],
              "local list size " << data.size() << " != declared "
                                 << sizes[me]);

  const std::size_t n_grp =
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  std::size_t my_start = 0;  // first pass-1 slot owned by this member
  for (std::size_t g = 0; g < me; ++g) my_start += sizes[g];

  // --- pass 1: broadcast everything once; count larger elements -----------
  // rank[e] starts at 1 and ends as the element's 1-based descending rank.
  std::vector<std::size_t> rank(data.size(), 1);
  self.note_aux(rank.size());
  for (std::size_t slot = 0; slot < n_grp; ++slot) {
    const bool mine = slot >= my_start && slot < my_start + data.size();
    Word bv = 0;  // broadcast value / owner / index this slot
    std::size_t bo = 0, bi = 0;
    if (mine) {
      bi = slot - my_start;
      bo = me;
      bv = data[bi];
      co_await self.write(grp.channel, Message::of(bv, bo, bi));
    } else {
      auto got = co_await self.read(grp.channel);
      MCB_CHECK(got.has_value(), "pass-1 slot " << slot << " silent");
      bv = got->at(0);
      bo = static_cast<std::size_t>(got->at(1));
      bi = static_cast<std::size_t>(got->at(2));
    }
    // Everyone (sender included) bumps the rank of every local element
    // smaller than the broadcast one.
    for (std::size_t e = 0; e < data.size(); ++e) {
      if (triple_less(data[e], me, e, bv, bo, bi)) ++rank[e];
    }
  }

  // --- pass 2: emit in rank order; targets collect their segments ---------
  std::size_t tgt_start = 0;  // first output rank (0-based) owned by me
  for (std::size_t g = 0; g < me; ++g) tgt_start += sizes[g];
  const std::size_t tgt_end = tgt_start + sizes[me];

  // My elements in emit order: (slot, element index) sorted by slot. A
  // pointer walk over this list keeps pass-2 bookkeeping at O(n_i) words
  // (a whole-group slot map would be O(n) per processor).
  std::vector<Word> out(sizes[me]);
  std::vector<std::pair<std::size_t, std::size_t>> emits(data.size());
  for (std::size_t e = 0; e < data.size(); ++e) {
    emits[e] = {rank[e] - 1, e};
  }
  seq::intro_sort(std::span<std::pair<std::size_t, std::size_t>>(emits));
  self.note_aux(rank.size() + out.size() + emits.size());

  // Action slots are the emit list (sorted by slot) merged with the
  // contiguous target window; sleep through the gaps between them.
  std::size_t next_emit = 0;
  for (std::size_t slot = 0; slot < n_grp; ++slot) {
    std::size_t next_act = n_grp;
    if (next_emit < emits.size()) {
      next_act = std::min(next_act, emits[next_emit].first);
    }
    if (slot < tgt_end) next_act = std::min(next_act, std::max(slot, tgt_start));
    if (next_act == n_grp) {  // nothing left to do in this pass
      co_await self.skip(n_grp - slot);
      break;
    }
    const Cycle idle = next_act - slot;  // slept out by this action
    slot = next_act;
    std::size_t e = SIZE_MAX;
    if (next_emit < emits.size() && emits[next_emit].first == slot) {
      e = emits[next_emit].second;
      ++next_emit;
    }
    const bool target_is_me = slot >= tgt_start && slot < tgt_end;
    if (e != SIZE_MAX) {
      // I own the element of this rank.
      if (target_is_me) {
        out[slot - tgt_start] = data[e];  // already in place: stay silent
        auto aw = self.cycle_after(idle, std::nullopt, std::nullopt);
        co_await aw;
      } else {
        auto aw = self.cycle_after(
            idle, WriteOp{grp.channel, Message::of(data[e])}, std::nullopt);
        co_await aw;
      }
    } else {
      auto aw = self.cycle_after(idle, std::nullopt, grp.channel);
      const Proc::ReadResult got = co_await aw;
      MCB_CHECK(got.has_value(), "pass-2 slot " << slot << " silent");
      out[slot - tgt_start] = got->at(0);
    }
  }
  data = std::move(out);
}

namespace {

ProcMain ranksort_program(Proc& self, const GroupSpec& grp,
                          const std::vector<std::size_t>& sizes,
                          const std::vector<Word>& in,
                          std::vector<Word>& out) {
  out = in;
  co_await ranksort_group(self, grp, sizes, out);
}

}  // namespace

AlgoResult ranksort(const SimConfig& cfg,
                    const std::vector<std::vector<Word>>& inputs,
                    TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  std::vector<std::size_t> sizes(cfg.p);
  for (std::size_t i = 0; i < cfg.p; ++i) {
    MCB_REQUIRE(!inputs[i].empty(), "P" << i + 1 << " holds no elements");
    sizes[i] = inputs[i].size();
  }
  const GroupSpec grp{0, cfg.p, 0};

  return run_network(
      cfg, inputs,
      [&grp, &sizes](Proc& self, const std::vector<Word>& in,
                     std::vector<Word>& out) {
        return ranksort_program(self, grp, sizes, in, out);
      },
      sink);
}

}  // namespace mcb::algo
