#include "algo/mergesort.hpp"

#include <algorithm>
#include <numeric>

#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// Globally unique element identity: (value, owner, serial), ordered
/// lexicographically — the paper's distinctness device.
struct Key {
  Word value = 0;
  Word owner = -1;  ///< -1 encodes the null pointer
  Word serial = 0;

  bool null() const { return owner < 0; }
  friend auto operator<=>(const Key&, const Key&) = default;
};

constexpr Key kNullKey{};

Message key_message(const Key& k) { return Message::of(k.value, k.owner, k.serial); }

Key key_from(const Message& m, std::size_t at = 0) {
  return Key{m.at(at), m.at(at + 1), m.at(at + 2)};
}

}  // namespace

Task<void> mergesort_group(Proc& self, const GroupSpec& grp,
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
  const ChannelId ch = grp.channel;
  const std::size_t n_grp =
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  std::size_t tgt_start = 0;  // my output ranks: [tgt_start, tgt_end)
  for (std::size_t g = 0; g < me; ++g) tgt_start += sizes[g];
  const std::size_t tgt_end = tgt_start + sizes[me];

  // Remaining (unplaced) elements as keys, sorted descending; front = top.
  Word next_serial = 0;
  std::vector<Key> remaining;
  remaining.reserve(data.size() + 1);
  for (Word v : data) {
    remaining.push_back(Key{v, static_cast<Word>(me), next_serial++});
  }
  seq::intro_sort(std::span<Key>(remaining), std::greater<Key>{});

  std::vector<Word> out;
  out.reserve(sizes[me]);

  // Linked-list state.
  bool listed = false;
  std::size_t rank = 0;   // 1-based when listed
  Key pointer = kNullKey;  // next smaller listed top

  // Auxiliary storage beyond the element capacity: constant bookkeeping
  // plus at most one element of slack (see C2 eviction rule).
  auto note = [&] {
    const std::size_t held = remaining.size() + out.size();
    const std::size_t slack = held > sizes[me] ? held - sizes[me] : 0;
    self.note_aux(8 + slack);
  };
  note();

  // --- initial construction: members insert their tops one by one ---------
  // Each insertion is 3 cycles: (a) broadcast the candidate top, (b) P_b
  // replies with the insertion point, (c) on silence in (b), the demoted
  // previous head hands over its top as the new head's pointer.
  for (std::size_t g = 0; g < grp.count; ++g) {
    const bool inserting = g == me;
    Key cand;
    // (a)
    if (inserting) {
      cand = remaining.front();
      co_await self.write(ch, key_message(cand));
    } else {
      auto got = co_await self.read(ch);
      MCB_CHECK(got.has_value(), "construction broadcast missing");
      cand = key_from(*got);
    }
    const bool am_pb = listed && remaining.front() > cand &&
                       (pointer.null() || pointer < cand);
    bool was_head = listed && rank == 1;
    if (listed && remaining.front() < cand) ++rank;
    // (b)
    if (am_pb) {
      co_await self.write(ch, Message::of(static_cast<Word>(rank + 1),
                                           pointer.value, pointer.owner,
                                           pointer.serial));
      pointer = cand;
    } else {
      auto got = co_await self.read(ch);
      if (inserting) {
        if (got) {
          rank = static_cast<std::size_t>(got->at(0));
          pointer = key_from(*got, 1);
        } else {
          rank = 1;  // new global maximum; pointer set in (c)
        }
        listed = true;
      }
    }
    // (c)
    if (was_head && rank == 2) {
      // I was the head and got demoted: the inserter is the new head and
      // needs my top as its pointer.
      co_await self.write(ch, key_message(remaining.front()));
    } else {
      auto got = co_await self.read(ch);
      if (inserting && rank == 1 && got) {
        pointer = key_from(*got);
      }
    }
  }

  // --- main rounds: place one element per round ----------------------------
  for (std::size_t slot = 0; slot < n_grp; ++slot) {
    const bool am_head = listed && rank == 1;
    const bool am_target = slot >= tgt_start && slot < tgt_end;

    // C1: head -> target.
    Word placed = 0;
    if (am_head) {
      placed = remaining.front().value;
      co_await self.write(ch, Message::of(placed));
      remaining.erase(remaining.begin());
      listed = false;
      rank = 0;
    } else {
      auto got = co_await self.read(ch);
      MCB_CHECK(got.has_value(), "round " << slot << ": no head broadcast");
      placed = got->at(0);
      if (listed) --rank;
    }
    if (am_target) {
      out.push_back(placed);
      note();
    }

    // C2: target -> head (replacement), silence otherwise. The target only
    // evicts when it keeps at least two unplaced elements, so its listed
    // top is never evicted and the linked list stays intact.
    if (am_target && !am_head && remaining.size() >= 2) {
      const Key evicted = remaining.back();
      remaining.pop_back();
      co_await self.write(ch, Message::of(evicted.value));
      note();
    } else {
      auto got = co_await self.read(ch);
      if (am_head && got) {
        // Re-tag and merge into my remaining list.
        const Key k{got->at(0), static_cast<Word>(me), next_serial++};
        remaining.insert(
            std::upper_bound(remaining.begin(), remaining.end(), k,
                             std::greater<Key>{}),
            k);
        note();
      }
    }

    // C3: head re-inserts its new top (silence when it ran dry).
    Key cand = kNullKey;
    bool inserting = false;
    if (am_head) {
      if (!remaining.empty()) {
        cand = remaining.front();
        inserting = true;
        co_await self.write(ch, key_message(cand));
      } else {
        co_await self.window(1);
      }
    } else {
      auto got = co_await self.read(ch);
      if (got) cand = key_from(*got);
    }
    const bool have_cand = !cand.null();

    // C4: P_b replies with the insertion point.
    const bool am_pb = have_cand && listed && remaining.front() > cand &&
                       (pointer.null() || pointer < cand);
    if (have_cand && listed && remaining.front() < cand) ++rank;
    if (am_pb) {
      co_await self.write(ch, Message::of(static_cast<Word>(rank + 1),
                                           pointer.value, pointer.owner,
                                           pointer.serial));
      pointer = cand;
    } else {
      auto got = co_await self.read(ch);
      if (am_head && inserting) {
        if (got) {
          rank = static_cast<std::size_t>(got->at(0));
          pointer = key_from(*got, 1);
        } else {
          // New global maximum: rank 1; my old pointer already names the
          // current second-largest top (only heads are ever removed).
          rank = 1;
        }
        listed = true;
      }
    }
  }

  MCB_CHECK(out.size() == sizes[me],
            "P" << me << " placed " << out.size() << " of " << sizes[me]);
  MCB_CHECK(remaining.empty(),
            "P" << me << " still holds " << remaining.size() << " elements");
  data = std::move(out);
}

namespace {

ProcMain mergesort_program(Proc& self, const GroupSpec& grp,
                           const std::vector<std::size_t>& sizes,
                           const std::vector<Word>& in,
                           std::vector<Word>& out) {
  out = in;
  co_await mergesort_group(self, grp, sizes, out);
}

}  // namespace

AlgoResult mergesort(const SimConfig& cfg,
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
        return mergesort_program(self, grp, sizes, in, out);
      },
      sink);
}

}  // namespace mcb::algo
