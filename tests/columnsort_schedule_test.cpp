// Pins the exact schedules of the three Columnsorts built on the
// shared core (columnsort-even, uneven and virtual): cycles, messages,
// fingerprints of messages_per_proc / messages_per_channel /
// peak_aux_words, and a fingerprint of the full cycle-by-cycle trace, over
// a (p, k, ni) grid on both engines. The grid covers one processor per
// column (g = 1), one element per processor (ni = 1), segments that
// straddle two columns in the redistribution, a single column (k = 1), and
// windows longer than 32 beats. Any change to who acts in which
// cycle, on which channel, with which payload shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "algo/columnsort_even.hpp"
#include "algo/uneven_sort.hpp"
#include "algo/virtual_columnsort.hpp"
#include "schedule_fingerprint.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

using mcb::fingerprint::counts_fingerprint;
using mcb::fingerprint::TraceFingerprint;

enum class Sorter { kEven, kUneven, kVirtual };

const char* name(Sorter d) {
  switch (d) {
    case Sorter::kEven:
      return "even";
    case Sorter::kUneven:
      return "uneven";
    case Sorter::kVirtual:
      return "virtual";
  }
  return "?";
}

struct Shape {
  std::size_t p, k, ni;
};

// g = p / columns; "straddle" marks shapes whose padded column is longer
// than a group's elements, so some segments span two columns.
const Shape kShapes[] = {
    {4, 4, 12},  // g = 1, no redistribution
    {4, 4, 13},  // g = 1, straddle
    {7, 7, 42},  // g = 1, seven columns
    {4, 2, 1},   // ni = 1
    {32, 4, 1},  // ni = 1, two columns of sixteen members
    {6, 3, 5},   // straddle
    {10, 5, 9},  // straddle
    {12, 3, 7},
    {20, 4, 3},
    {30, 5, 11},
    {48, 6, 10},
    {5, 1, 4},     // one column: no transformations
    {9, 3, 40},    // member windows of one chunk and a remainder
    {16, 4, 64},   // two full chunks per member window
    {64, 8, 65},   // wide columns, long transformation windows
    {12, 8, 45},   // uneven: a representative's read window overlaps
    {10, 8, 50},   //   and extends past its write prefix
};

/// Seeded inputs: ni values per processor for the even sorts, 1..2ni-1
/// for the uneven one.
std::vector<std::vector<Word>> inputs_for(Sorter d, const Shape& s) {
  util::Xoshiro256StarStar rng(s.p * 131 + s.k * 7 + s.ni);
  std::vector<std::vector<Word>> in(s.p);
  for (auto& v : in) {
    const std::size_t len =
        d == Sorter::kUneven
            ? static_cast<std::size_t>(
                  rng.uniform(1, static_cast<std::int64_t>(2 * s.ni) - 1))
            : s.ni;
    v.resize(std::max<std::size_t>(len, 1));
    for (auto& w : v) w = rng.uniform(-500, 500);
  }
  return in;
}

struct Pinned {
  Sorter sorter;
  std::size_t p, k, ni;
  std::uint64_t cycles, messages, counts, trace;
};

Pinned measure(Sorter d, const Shape& s, Engine engine) {
  const SimConfig cfg{.p = s.p, .k = s.k, .engine = engine};
  const auto in = inputs_for(d, s);
  TraceFingerprint trace;
  RunStats stats;
  switch (d) {
    case Sorter::kEven:
      stats = columnsort_even(cfg, in, {}, &trace).run.stats;
      break;
    case Sorter::kUneven:
      stats = uneven_sort(cfg, in, &trace).run.stats;
      break;
    case Sorter::kVirtual:
      stats = virtual_columnsort(cfg, in, {}, &trace).run.stats;
      break;
  }
  return Pinned{d,
                s.p,
                s.k,
                s.ni,
                stats.cycles,
                stats.messages,
                counts_fingerprint(stats),
                trace.value()};
}

std::string row(const Pinned& r) {
  static const char* const kEnum[] = {"kEven", "kUneven", "kVirtual"};
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{Sorter::%s, %zu, %zu, %zu, %llu, %llu, 0x%016llxull, "
                "0x%016llxull},",
                kEnum[static_cast<int>(r.sorter)], r.p, r.k, r.ni,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.counts),
                static_cast<unsigned long long>(r.trace));
  return buf;
}

// Generated from the implementation that resumed every processor once per
// channel action and rebuilt the plans on every call.
const Pinned kPinnedSchedules[] = {
    {Sorter::kEven, 4, 4, 12, 30, 118, 0x04b3c5cd8f343995ull,
     0x0d4c348eb36cf206ull},
    {Sorter::kEven, 4, 4, 13, 72, 262, 0x310e9a3f7bddce25ull,
     0xfd4e52f1f3e944d1ull},
    {Sorter::kEven, 7, 7, 42, 114, 792, 0x819c6bf3040d6dc1ull,
     0x895cd2e2caa37f6eull},
    {Sorter::kEven, 4, 2, 1, 9, 18, 0xe4d949a4f209c835ull,
     0xca276d2942289ee9ull},
    {Sorter::kEven, 32, 4, 1, 79, 158, 0x55d6e57367a6d9f5ull,
     0x716a2716af885711ull},
    {Sorter::kEven, 6, 3, 5, 57, 157, 0x88342b90fa211535ull,
     0x38b33056ea2ce9acull},
    {Sorter::kEven, 10, 5, 9, 101, 481, 0xaa7723183ab1c00dull,
     0x6c65f8d6c8c68c65ull},
    {Sorter::kEven, 12, 3, 7, 151, 439, 0xfc9735fdd6536fc3ull,
     0x12e00fb16eccd6daull},
    {Sorter::kEven, 20, 4, 3, 84, 326, 0x0e15c018980e1ec5ull,
     0x0596ce128bfe1913ull},
    {Sorter::kEven, 30, 5, 11, 377, 1841, 0xb2198272ffd29cc5ull,
     0xdd45523b2ffff510ull},
    {Sorter::kEven, 48, 6, 10, 462, 2720, 0xeeee78170989c875ull,
     0x63112ba25db82e27ull},
    {Sorter::kEven, 5, 1, 4, 56, 56, 0x8b6eea7203a904c1ull,
     0x8f21522ebf2e1501ull},
    {Sorter::kEven, 9, 3, 40, 600, 1798, 0x0e0b0d4c83d15145ull,
     0x558a78c3d95a7cbdull},
    {Sorter::kEven, 16, 4, 64, 1344, 5374, 0x87aea6e89afed325ull,
     0x91d4d6543865c9daull},
    {Sorter::kEven, 64, 8, 65, 2925, 23394, 0x996a8471273bc2d5ull,
     0x5941c5e8ff223f4dull},
    {Sorter::kEven, 12, 8, 45, 465, 2786, 0x5844144f52e3f425ull,
     0x3a0cb90507434df7ull},
    {Sorter::kEven, 10, 8, 50, 510, 2546, 0x18369d6800321661ull,
     0x4cb83f48777e20eaull},
    {Sorter::kUneven, 4, 4, 12, 153, 233, 0x7210af8f63f6191bull,
     0x2d09058ddb0de42aull},
    {Sorter::kUneven, 4, 4, 13, 143, 234, 0x34e7c945b6f8bf7dull,
     0xa89a55cf1bcf7faaull},
    {Sorter::kUneven, 7, 7, 42, 690, 1637, 0xdf1b96b78636bf61ull,
     0x28a7bc2b2f0a29edull},
    {Sorter::kUneven, 4, 2, 1, 24, 37, 0xa883481638324e5dull,
     0x7f796d77850dc113ull},
    {Sorter::kUneven, 32, 4, 1, 113, 335, 0xff46f86606f5f991ull,
     0xfc0e74e17469e7c0ull},
    {Sorter::kUneven, 6, 3, 5, 82, 122, 0x82837dbc4fe95869ull,
     0x59cff3b7056ec894ull},
    {Sorter::kUneven, 10, 5, 9, 155, 358, 0xfc9b06a763a503a0ull,
     0x4429509040f1d900ull},
    {Sorter::kUneven, 12, 3, 7, 229, 543, 0x0ac7972d6106e10aull,
     0xb330a42f7cfd1580ull},
    {Sorter::kUneven, 20, 4, 3, 179, 522, 0x46289c5764bdec91ull,
     0xa8eda0c2b8fb92e4ull},
    {Sorter::kUneven, 30, 5, 11, 488, 1784, 0x061baf14feb804c5ull,
     0x7e0dacf9309d157bull},
    {Sorter::kUneven, 48, 6, 10, 650, 3273, 0x6c301bea1d25a4a8ull,
     0x3a67f40585507727ull},
    {Sorter::kUneven, 5, 1, 4, 98, 82, 0x9f05be0241178358ull,
     0x8d85ec0e8018a779ull},
    {Sorter::kUneven, 9, 3, 40, 905, 1638, 0xdade703b19b7f36cull,
     0xa07235cf15c73b0dull},
    {Sorter::kUneven, 16, 4, 64, 1885, 5169, 0x62e25822615be040ull,
     0xb2621a30e115af18ull},
    {Sorter::kUneven, 64, 8, 65, 3897, 25594, 0xd87e0b5af5583e4bull,
     0xc006ab3f4ae95163ull},
    {Sorter::kUneven, 12, 8, 45, 836, 3218, 0xbeaab5877a329c8cull,
     0x9182c681d6e2da73ull},
    {Sorter::kUneven, 10, 8, 50, 1004, 4079, 0x95aed5bec633594eull,
     0x19c726389a6a47e2ull},
    {Sorter::kVirtual, 4, 4, 12, 30, 118, 0x04b3c5cd8f343995ull,
     0xce99fed7fea5b14aull},
    {Sorter::kVirtual, 4, 4, 13, 72, 262, 0x310e9a3f7bddce25ull,
     0x9e2d969deba144a9ull},
    {Sorter::kVirtual, 7, 7, 42, 114, 792, 0x819c6bf3040d6dc1ull,
     0xb521fab16c884d42ull},
    {Sorter::kVirtual, 4, 2, 1, 22, 32, 0x6c233b2a6024b235ull,
     0xb8f1fce5c0b4758eull},
    {Sorter::kVirtual, 32, 4, 1, 190, 305, 0x844ef75b3d16b5cdull,
     0x7faa67fc6e5f1fabull},
    {Sorter::kVirtual, 6, 3, 5, 163, 348, 0xc8dd963bf7d3a45bull,
     0x20049dfe57b49305ull},
    {Sorter::kVirtual, 10, 5, 9, 275, 1036, 0xb9ad4209edfc51dfull,
     0x2a2bfd33b8af08a6ull},
    {Sorter::kVirtual, 12, 3, 7, 415, 990, 0x6cbef3885d2743feull,
     0x38c6fc94564d2fbcull},
    {Sorter::kVirtual, 20, 4, 3, 222, 728, 0x0e8f25525006e7cbull,
     0xbbe980083061c678ull},
    {Sorter::kVirtual, 30, 5, 11, 975, 4008, 0x8adf4f8836079b9dull,
     0x8c7430dea7c20c52ull},
    {Sorter::kVirtual, 48, 6, 10, 1174, 5914, 0x2fde3a2522ef2d45ull,
     0xa66dc0fda541b2deull},
    {Sorter::kVirtual, 5, 1, 4, 40, 35, 0x994ef1fd2645d233ull,
     0x0ca509a488a80d07ull},
    {Sorter::kVirtual, 9, 3, 40, 1413, 3168, 0x1c7627491e2dc1bdull,
     0xd87f1254ca96da35ull},
    {Sorter::kVirtual, 16, 4, 64, 3040, 9385, 0x7f4f067dd09adedcull,
     0xc7e8d3b420470ff9ull},
    {Sorter::kVirtual, 64, 8, 65, 6223, 40386, 0x94970fbc392b5e44ull,
     0xb81d7a540b0eb4d0ull},
    {Sorter::kVirtual, 12, 8, 45, 1064, 4738, 0x31f580e04ef6eb18ull,
     0x91c12c7d8f77d462ull},
    {Sorter::kVirtual, 10, 8, 50, 1180, 4212, 0xb95d565da2a62f54ull,
     0x8d70e1ff572e0d29ull},
};

TEST(ColumnsortSchedule, PinnedAcrossShapesAndEngines) {
  std::size_t checked = 0;
  for (Sorter d : {Sorter::kEven, Sorter::kUneven, Sorter::kVirtual}) {
    for (const Shape& s : kShapes) {
      const Pinned* want = nullptr;
      for (const Pinned& r : kPinnedSchedules) {
        if (r.sorter == d && r.p == s.p && r.k == s.k && r.ni == s.ni) {
          want = &r;
        }
      }
      for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
        const Pinned got = measure(d, s, e);
        ASSERT_NE(want, nullptr) << "no pinned row; measured " << row(got);
        const std::string label =
            std::string(name(d)) + " p=" + std::to_string(s.p) +
            " k=" + std::to_string(s.k) + " ni=" + std::to_string(s.ni) +
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
