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
  // Everyone (sender included) bumps the rank of every local element
  // smaller than the one broadcast in a slot.
  std::vector<std::size_t> rank(data.size(), 1);
  self.note_aux(rank.size());
  const auto bump = [&](Word bv, std::size_t bo, std::size_t bi) {
    for (std::size_t e = 0; e < data.size(); ++e) {
      if (triple_less(data[e], me, e, bv, bo, bi)) ++rank[e];
    }
  };
  {
    auto aw = self.window(
        0, n_grp, 0,
        [&](std::size_t slot) {
          if (slot < my_start || slot - my_start >= data.size()) {
            return Beat{{}, kNoChannel, grp.channel};
          }
          const std::size_t bi = slot - my_start;
          bump(data[bi], me, bi);
          return Beat{Message::of(data[bi], me, bi), grp.channel};
        },
        [&](std::size_t slot, const Proc::ReadResult& got) {
          MCB_CHECK(got.has_value(), "pass-1 slot " << slot << " silent");
          bump(got->at(0), static_cast<std::size_t>(got->at(1)),
               static_cast<std::size_t>(got->at(2)));
        });
    co_await aw;
  }

  // --- pass 2: emit in rank order; targets collect their segments ---------
  std::size_t tgt_start = 0;  // first output rank (0-based) owned by me
  for (std::size_t g = 0; g < me; ++g) tgt_start += sizes[g];
  const std::size_t tgt_end = tgt_start + sizes[me];
  const auto targets_me = [&](std::size_t slot) {
    return slot >= tgt_start && slot < tgt_end;
  };

  // My elements in emit order: (slot, element index) sorted by slot. A
  // pointer walk over this list keeps pass-2 bookkeeping at O(n_i) words
  // (a whole-group slot map would be O(n) per processor).
  std::vector<Word> out(sizes[me]);
  std::vector<std::pair<std::size_t, std::size_t>> emits(data.size());
  for (std::size_t e = 0; e < data.size(); ++e) {
    emits[e] = {rank[e] - 1, e};
    // An element already in its target slot stays put, silently.
    if (targets_me(rank[e] - 1)) out[rank[e] - 1 - tgt_start] = data[e];
  }
  seq::intro_sort(std::span<std::pair<std::size_t, std::size_t>>(emits));
  self.note_aux(rank.size() + out.size() + emits.size());

  // One window over my action slots [first, last): the emit slots and the
  // target window, with idle beats between them.
  std::size_t first = tgt_start < tgt_end ? tgt_start : n_grp;
  std::size_t last = tgt_end;
  if (!emits.empty()) {
    first = std::min(first, emits.front().first);
    last = std::max(last, emits.back().first + 1);
  }
  if (first > last) first = last;
  std::size_t next_emit = 0;
  auto aw = self.window(
      first, last - first, n_grp - last,
      [&](std::size_t j) {
        const std::size_t slot = first + j;
        const bool emit =
            next_emit < emits.size() && emits[next_emit].first == slot;
        const std::size_t e = emit ? emits[next_emit++].second : 0;
        if (targets_me(slot)) {
          return emit ? Beat{} : Beat{{}, kNoChannel, grp.channel};
        }
        return emit ? Beat{Message::of(data[e]), grp.channel} : Beat{};
      },
      [&](std::size_t j, const Proc::ReadResult& got) {
        MCB_CHECK(got.has_value(), "pass-2 slot " << first + j << " silent");
        out[first + j - tgt_start] = got->at(0);
      });
  co_await aw;
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
