// Pins the exact schedules of the single-channel group sorts of Section
// 6.1 (Rank-Sort, Merge-Sort) and of the two Columnsorts built on them
// (virtual Columnsort with either local sort, recursive Columnsort):
// cycles, messages, resumes, peak auxiliary storage, the phase table,
// fingerprints of messages_per_proc / messages_per_channel /
// peak_aux_words, and a fingerprint of the full cycle-by-cycle trace, over
// a shape grid on both engines. The grid covers uneven lists, windows
// longer than 32 beats, one processor per column (g = 1), virtual shapes
// that redistribute, and recursive plans two or more levels deep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "algo/mergesort.hpp"
#include "algo/ranksort.hpp"
#include "algo/recursive_columnsort.hpp"
#include "algo/virtual_columnsort.hpp"
#include "schedule_fingerprint.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

using mcb::fingerprint::counts_fingerprint;
using mcb::fingerprint::Fnv;
using mcb::fingerprint::TraceFingerprint;

enum class Group { kRank, kMerge, kVirtualRank, kVirtualMerge, kRecursive };

const char* name(Group g) {
  static const char* const kNames[] = {"ranksort", "mergesort",
                                       "virtual-rank", "virtual-merge",
                                       "recursive"};
  return kNames[static_cast<int>(g)];
}

/// `split` caps the recursive sort's split factor (0: greedy); the other
/// sorts ignore it.
struct Shape {
  std::size_t p, k, ni, split;
};

// Rank- and Merge-Sort take 1..2ni-1 elements per processor on channel 0.
const Shape kSingleShapes[] = {
    {1, 1, 4, 0},    // one member
    {4, 1, 3, 0},
    {7, 1, 5, 0},
    {12, 3, 7, 0},   // more channels than the sort uses
    {16, 1, 40, 0},  // windows of more than one 32-beat block
};

// Virtual Columnsort: even inputs, with both local sorts.
const Shape kVirtualShapes[] = {
    {4, 4, 12, 0},   // g = 1: local column sorts, no group sort
    {6, 3, 5, 0},    // redistributes
    {12, 3, 7, 0},
    {32, 4, 1, 0},   // one element per processor
    {16, 4, 64, 0},  // long group windows
};

// Recursive Columnsort: even inputs.
const Shape kRecursiveShapes[] = {
    {4, 1, 8, 0},    // one channel: Rank-Sort at the root
    {16, 4, 64, 0},  // one split
    {64, 16, 4, 0},  // two levels
    {64, 16, 16, 2},  // capped split: deeper still
    {16, 8, 8, 0},
};

/// Seeded inputs: 1..2ni-1 values per processor for the single-channel
/// sorts, ni for the Columnsorts.
std::vector<std::vector<Word>> inputs_for(Group g, const Shape& s) {
  util::Xoshiro256StarStar rng(s.p * 131 + s.k * 7 + s.ni);
  const bool uneven = g == Group::kRank || g == Group::kMerge;
  std::vector<std::vector<Word>> in(s.p);
  for (auto& v : in) {
    const std::size_t len =
        uneven ? static_cast<std::size_t>(
                     rng.uniform(1, static_cast<std::int64_t>(2 * s.ni) - 1))
               : s.ni;
    v.resize(std::max<std::size_t>(len, 1));
    for (auto& w : v) w = rng.uniform(-500, 500);
  }
  return in;
}

std::uint64_t phases_fingerprint(const RunStats& s) {
  Fnv f;
  for (const PhaseStats& ph : s.phases) {
    for (char c : ph.name) f.add(static_cast<std::uint64_t>(c));
    f.add(ph.first_cycle);
    f.add(ph.cycles);
    f.add(ph.messages);
  }
  return f.h ^ s.phases.size();
}

struct Pinned {
  Group algo;
  std::size_t p, k, ni, split;
  std::uint64_t cycles, messages, resumes, aux, phases, counts, trace;
};

struct Measured {
  Pinned row;
  std::size_t depth = 0;     ///< recursive plans only
  bool redistributed = false;  ///< virtual runs only
};

Measured measure(Group g, const Shape& s, Engine engine) {
  const SimConfig cfg{.p = s.p, .k = s.k, .engine = engine};
  const auto in = inputs_for(g, s);
  TraceFingerprint trace;
  RunStats stats;
  std::size_t depth = 0;
  switch (g) {
    case Group::kRank:
      stats = ranksort(cfg, in, &trace).stats;
      break;
    case Group::kMerge:
      stats = mergesort(cfg, in, &trace).stats;
      break;
    case Group::kVirtualRank:
    case Group::kVirtualMerge:
      stats = virtual_columnsort(cfg, in,
                                 {.local_sort = g == Group::kVirtualRank
                                                    ? LocalSort::kRankSort
                                                    : LocalSort::kMergeSort},
                                 &trace)
                  .run.stats;
      break;
    case Group::kRecursive: {
      auto res = recursive_columnsort(cfg, in, {.max_split = s.split}, &trace);
      stats = std::move(res.run.stats);
      depth = res.depth;
      break;
    }
  }
  return Measured{Pinned{g, s.p, s.k, s.ni, s.split, stats.cycles,
                         stats.messages, stats.proc_resumes,
                         stats.max_peak_aux(), phases_fingerprint(stats),
                         counts_fingerprint(stats), trace.value()},
                  depth, stats.phase("virtual-redistribute") != nullptr};
}

std::string row(const Pinned& r) {
  static const char* const kEnum[] = {"kRank", "kMerge", "kVirtualRank",
                                      "kVirtualMerge", "kRecursive"};
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{Group::%s, %zu, %zu, %zu, %zu, %llu, %llu, %llu, %llu, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull},",
                kEnum[static_cast<int>(r.algo)], r.p, r.k, r.ni, r.split,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.resumes),
                static_cast<unsigned long long>(r.aux),
                static_cast<unsigned long long>(r.phases),
                static_cast<unsigned long long>(r.counts),
                static_cast<unsigned long long>(r.trace));
  return buf;
}

// Generated from the implementation whose group sorts were Task
// subroutines, each call with a coroutine frame of its own.
const Pinned kPinnedSchedules[] = {
    {Group::kRank, 1, 1, 4, 0, 14, 7, 3, 21,
     0xcbf29ce484222325ull, 0x3fabb3256217f3c0ull, 0xdcbcf826a617a617ull},
    {Group::kRank, 4, 1, 3, 0, 14, 13, 12, 9,
     0xcbf29ce484222325ull, 0x03783a9f056b1ac6ull, 0x55a0568af583cb1dull},
    {Group::kRank, 7, 1, 5, 0, 82, 79, 21, 27,
     0xcbf29ce484222325ull, 0xd0eef16ceea798b4ull, 0x345d73f120bac448ull},
    {Group::kRank, 12, 3, 7, 0, 170, 158, 36, 36,
     0xcbf29ce484222325ull, 0x6d38215317116a24ull, 0xd098dac8ff9d8a97ull},
    {Group::kRank, 16, 1, 40, 0, 1164, 1121, 48, 219,
     0xcbf29ce484222325ull, 0x253cde92f00d4a4dull, 0x50a27ee8a44b81fbull},
    {Group::kMerge, 1, 1, 4, 0, 31, 14, 32, 8,
     0xcbf29ce484222325ull, 0x47883f5e47350fcdull, 0x5991a740dc0a7f3cull},
    {Group::kMerge, 4, 1, 3, 0, 40, 20, 164, 9,
     0xcbf29ce484222325ull, 0xb2fe14b9e73b87cbull, 0x4d946c35cd8dadd9ull},
    {Group::kMerge, 7, 1, 5, 0, 185, 138, 1302, 9,
     0xcbf29ce484222325ull, 0x412dcb4ad3483c1cull, 0x6fcc6e2cbc2e7a71ull},
    {Group::kMerge, 12, 3, 7, 0, 376, 293, 4524, 9,
     0xcbf29ce484222325ull, 0x56a1f7a20c60b6fcull, 0x700c00b45611e8d5ull},
    {Group::kMerge, 16, 1, 40, 0, 2376, 2027, 38032, 9,
     0xcbf29ce484222325ull, 0x805d5ebfeac0ca43ull, 0xe9b1c9c30038441bull},
    {Group::kVirtualRank, 4, 4, 12, 0, 30, 118, 20, 24,
     0x6ec15969254c4e6cull, 0x04b3c5cd8f343995ull, 0xce99fed7fea5b14aull},
    {Group::kVirtualRank, 6, 3, 5, 0, 163, 348, 80, 21,
     0x07d7e90493f4d1e8ull, 0xc8dd963bf7d3a45bull, 0x20049dfe57b49305ull},
    {Group::kVirtualRank, 12, 3, 7, 0, 415, 990, 160, 27,
     0x8f724993dc802074ull, 0x6cbef3885d2743feull, 0x38c6fc94564d2fbcull},
    {Group::kVirtualRank, 32, 4, 1, 0, 190, 305, 384, 3,
     0x35f11ce443816b84ull, 0x844ef75b3d16b5cdull, 0x7faa67fc6e5f1fabull},
    {Group::kVirtualRank, 16, 4, 64, 0, 3040, 9385, 200, 192,
     0xbfd79528649f0108ull, 0x7f4f067dd09adedcull, 0xc7e8d3b420470ff9ull},
    {Group::kVirtualMerge, 4, 4, 12, 0, 30, 118, 20, 24,
     0x6ec15969254c4e6cull, 0x04b3c5cd8f343995ull, 0xce99fed7fea5b14aull},
    {Group::kVirtualMerge, 6, 3, 5, 0, 283, 496, 1224, 14,
     0x259c6fb6b32c99bcull, 0x7f5b15b9ed702277ull, 0xaa84e915f787c362ull},
    {Group::kVirtualMerge, 12, 3, 7, 0, 703, 1409, 5880, 18,
     0xad93b4262da45df2ull, 0xf02931d89ae493e2ull, 0x7aed1fee2ef19b76ull},
    {Group::kVirtualMerge, 32, 4, 1, 0, 510, 453, 12704, 9,
     0x52c77585f956dc4bull, 0x6b93ef183dd57200ull, 0x756d2f40520814bdull},
    {Group::kVirtualMerge, 16, 4, 64, 0, 5136, 13867, 62240, 128,
     0xfaee133ab25a4ae1ull, 0xb9df0ae24462fc07ull, 0x86f2e3d8fd0d79b4ull},
    {Group::kRecursive, 4, 1, 8, 0, 64, 53, 12, 24,
     0x4b380b461c02378aull, 0x53ce810af9e25365ull, 0xf773a9f436177163ull},
    {Group::kRecursive, 16, 4, 64, 0, 3072, 9385, 204, 192,
     0x9137b4ab92b5ca46ull, 0x7f4f067dd09adedcull, 0xb0f615ef8d54d1b8ull},
    {Group::kRecursive, 64, 16, 4, 0, 832, 9485, 3156, 12,
     0x70491e04aa0aa0b4ull, 0x3ccb6c90f084725full, 0x30516c374e4ae1f4ull},
    {Group::kRecursive, 64, 16, 16, 2, 54528, 390871, 36444, 48,
     0xb3febe80c7ed946cull, 0x8b28ca82d98d12a3ull, 0xe7ec312a050ebd5full},
    {Group::kRecursive, 16, 8, 8, 0, 832, 4186, 774, 24,
     0x2c4a558275a5a088ull, 0x600e40e5ab7e9a56ull, 0xa2f5d27159935155ull},
};

TEST(GroupSortSchedule, PinnedAcrossShapesAndEngines) {
  struct Grid {
    Group algo;
    const Shape* begin;
    const Shape* end;
  };
  const Grid grids[] = {
      {Group::kRank, std::begin(kSingleShapes), std::end(kSingleShapes)},
      {Group::kMerge, std::begin(kSingleShapes), std::end(kSingleShapes)},
      {Group::kVirtualRank, std::begin(kVirtualShapes),
       std::end(kVirtualShapes)},
      {Group::kVirtualMerge, std::begin(kVirtualShapes),
       std::end(kVirtualShapes)},
      {Group::kRecursive, std::begin(kRecursiveShapes),
       std::end(kRecursiveShapes)},
  };
  std::size_t checked = 0, max_depth = 0;
  bool merge_redistributed = false;
  for (const Grid& grid : grids) {
    for (const Shape* s = grid.begin; s != grid.end; ++s) {
      const Pinned* want = nullptr;
      for (const Pinned& r : kPinnedSchedules) {
        if (r.algo == grid.algo && r.p == s->p && r.k == s->k &&
            r.ni == s->ni && r.split == s->split) {
          want = &r;
        }
      }
      for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
        const Measured m = measure(grid.algo, *s, e);
        const Pinned& got = m.row;
        max_depth = std::max(max_depth, m.depth);
        if (grid.algo == Group::kVirtualMerge && m.redistributed) {
          merge_redistributed = true;
        }
        EXPECT_NE(want, nullptr) << "no pinned row; measured " << row(got);
        if (want == nullptr) continue;
        const std::string label =
            std::string(name(grid.algo)) + " p=" + std::to_string(s->p) +
            " k=" + std::to_string(s->k) + " ni=" + std::to_string(s->ni) +
            " split=" + std::to_string(s->split) +
            (e == Engine::kReference ? " reference" : " event");
        EXPECT_EQ(got.cycles, want->cycles) << label;
        EXPECT_EQ(got.messages, want->messages) << label;
        EXPECT_EQ(got.resumes, want->resumes) << label;
        EXPECT_EQ(got.aux, want->aux) << label;
        EXPECT_EQ(got.phases, want->phases) << label;
        EXPECT_EQ(got.counts, want->counts) << label;
        EXPECT_EQ(got.trace, want->trace) << label;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedSchedules));
  // The grid reaches what it claims to cover.
  EXPECT_GE(max_depth, 2u);
  EXPECT_TRUE(merge_redistributed);
}

}  // namespace
}  // namespace mcb::algo
