// Pins the exact schedules of the central baselines (central_sort on
// uneven inputs, central_sort_multiread on even ones): cycles, messages,
// fingerprints of messages_per_proc / messages_per_channel /
// peak_aux_words, and a fingerprint of the full cycle-by-cycle trace, over
// a (p, k, ni) grid on both engines. The grid covers a single channel,
// more writer streams than members, and windows longer than 32 beats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "schedule_fingerprint.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

using mcb::fingerprint::counts_fingerprint;
using mcb::fingerprint::TraceFingerprint;

enum class Central { kSort, kMultiread };

struct Shape {
  std::size_t p, k, ni;
};

const Shape kShapes[] = {
    {4, 1, 3},    // one channel
    {4, 4, 5},    // more streams than writers
    {6, 2, 1},    // one element per processor
    {12, 3, 7},
    {16, 4, 40},  // windows of more than one 32-beat block
    {32, 8, 13},
};

/// Seeded inputs: ni values per processor for the multi-read sort, 1..2ni-1
/// for central_sort.
std::vector<std::vector<Word>> inputs_for(Central c, const Shape& s) {
  util::Xoshiro256StarStar rng(s.p * 131 + s.k * 7 + s.ni);
  std::vector<std::vector<Word>> in(s.p);
  for (auto& v : in) {
    const std::size_t len =
        c == Central::kSort
            ? static_cast<std::size_t>(
                  rng.uniform(1, static_cast<std::int64_t>(2 * s.ni) - 1))
            : s.ni;
    v.resize(std::max<std::size_t>(len, 1));
    for (auto& w : v) w = rng.uniform(-500, 500);
  }
  return in;
}

struct Pinned {
  Central algo;
  std::size_t p, k, ni;
  std::uint64_t cycles, messages, counts, trace;
};

Pinned measure(Central c, const Shape& s, Engine engine) {
  const SimConfig cfg{.p = s.p,
                      .k = s.k,
                      .multi_read = c == Central::kMultiread,
                      .engine = engine};
  const auto in = inputs_for(c, s);
  TraceFingerprint trace;
  const RunStats stats = c == Central::kSort
                             ? central_sort(cfg, in, &trace).stats
                             : central_sort_multiread(cfg, in, &trace).stats;
  return Pinned{c,
                s.p,
                s.k,
                s.ni,
                stats.cycles,
                stats.messages,
                counts_fingerprint(stats),
                trace.value()};
}

std::string row(const Pinned& r) {
  static const char* const kEnum[] = {"kSort", "kMultiread"};
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{Central::%s, %zu, %zu, %zu, %llu, %llu, 0x%016llxull, "
                "0x%016llxull},",
                kEnum[static_cast<int>(r.algo)], r.p, r.k, r.ni,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.counts),
                static_cast<unsigned long long>(r.trace));
  return buf;
}

// Generated from the implementation whose scatter was a Task subroutine.
const Pinned kPinnedSchedules[] = {
    {Central::kSort, 4, 1, 3, 21, 21, 0x16262b7e9bc7894bull,
     0x3d8416693d6ac3e1ull},
    {Central::kSort, 4, 4, 5, 39, 41, 0xc9c99c991cbfa379ull,
     0x93d73e997afd7699ull},
    {Central::kSort, 6, 2, 1, 21, 23, 0x00b4e8cedf24d4c9ull,
     0x79ab4d51862d10caull},
    {Central::kSort, 12, 3, 7, 185, 193, 0xa03ced4047ff03abull,
     0xc1655e5d554eeb58ull},
    {Central::kSort, 16, 4, 40, 1371, 1391, 0xd0ab49c9852605d5ull,
     0x2d47955917bf914aull},
    {Central::kSort, 32, 8, 13, 797, 847, 0x1a8215cf2c209964ull,
     0xc861a58514f66dfaull},
    {Central::kMultiread, 4, 1, 3, 21, 21, 0xaeb7030966b1f363ull,
     0x5c30d481be39fc05ull},
    {Central::kMultiread, 4, 4, 5, 25, 35, 0x706d17ef8ca75cf9ull,
     0xb711b10b88314a84ull},
    {Central::kMultiread, 6, 2, 1, 9, 11, 0x534c563c2a9d6e0full,
     0x354b4c12cc82f220ull},
    {Central::kMultiread, 12, 3, 7, 112, 161, 0xc60b6fb2cf891a1bull,
     0xea3364edb4a04461ull},
    {Central::kMultiread, 16, 4, 40, 800, 1240, 0xd44f9a1028fcbfc4ull,
     0x1ac981c18720eee1ull},
    {Central::kMultiread, 32, 8, 13, 468, 819, 0x2e38b3a50f5825d4ull,
     0x1a1cfedf81eaf19aull},
};

TEST(CentralSchedule, PinnedAcrossShapesAndEngines) {
  std::size_t checked = 0;
  for (Central c : {Central::kSort, Central::kMultiread}) {
    for (const Shape& s : kShapes) {
      const Pinned* want = nullptr;
      for (const Pinned& r : kPinnedSchedules) {
        if (r.algo == c && r.p == s.p && r.k == s.k && r.ni == s.ni) {
          want = &r;
        }
      }
      for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
        const Pinned got = measure(c, s, e);
        ASSERT_NE(want, nullptr) << "no pinned row; measured " << row(got);
        const std::string label =
            std::string(c == Central::kSort ? "central" : "multiread") +
            " p=" + std::to_string(s.p) + " k=" + std::to_string(s.k) +
            " ni=" + std::to_string(s.ni) +
            (e == Engine::kReference ? " reference" : " event");
        EXPECT_EQ(got.cycles, want->cycles) << label;
        EXPECT_EQ(got.messages, want->messages) << label;
        EXPECT_EQ(got.counts, want->counts) << label;
        EXPECT_EQ(got.trace, want->trace) << label;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedSchedules));
}

}  // namespace
}  // namespace mcb::algo
