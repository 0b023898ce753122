// Tests of the Partial-Sums collective (Section 7.1): correctness against a
// prefix-scan oracle across operators and network shapes, the paper's
// O(p/k + log k) cycle and O(p) message bounds, and the exact schedule
// (cycles, messages, per-processor / per-channel counts, aux storage and
// the cycle-by-cycle trace) pinned over a shape grid on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "algo/partial_sums.hpp"
#include "algo/runner.hpp"
#include "mcb/trace.hpp"
#include "schedule_fingerprint.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

using mcb::fingerprint::counts_fingerprint;
using mcb::fingerprint::TraceFingerprint;

struct PsOutcome {
  std::vector<PartialSumsResult> results;
  RunStats stats;
};

PsOutcome run_partial_sums(std::size_t p, std::size_t k,
                           const std::vector<Word>& values, const SumOp& op,
                           PartialSumsOptions opts = {},
                           Engine engine = Engine::kEventDriven,
                           TraceSink* sink = nullptr) {
  PsOutcome out;
  out.results.resize(p);
  Network net({.p = p, .k = k, .engine = engine}, sink);
  auto prog = [](Proc& self, Word a, const SumOp& o, PartialSumsOptions po,
                 PartialSumsResult& res) -> ProcMain {
    res = co_await partial_sums(self, a, o, po);
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), values[i], op, opts, out.results[i]));
  }
  out.stats = net.run();
  return out;
}

class PartialSumsShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PartialSumsShapes, AddMatchesPrefixScan) {
  auto [p, k] = GetParam();
  util::Xoshiro256StarStar rng(p * 31 + k);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-100, 100);

  auto out = run_partial_sums(p, k, values, SumOp::add(),
                              {.with_total = true, .with_next = true});

  Word prefix = 0;
  Word total = std::accumulate(values.begin(), values.end(), Word{0});
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_EQ(out.results[i].before, prefix) << "P" << i + 1;
    prefix += values[i];
    EXPECT_EQ(out.results[i].self, prefix) << "P" << i + 1;
    const Word next =
        i + 1 < p ? prefix + values[i + 1] : prefix;
    EXPECT_EQ(out.results[i].next, next) << "P" << i + 1;
    EXPECT_EQ(out.results[i].total, total) << "P" << i + 1;
  }
}

TEST_P(PartialSumsShapes, CycleAndMessageBounds) {
  auto [p, k] = GetParam();
  std::vector<Word> values(p, 1);
  auto out = run_partial_sums(p, k, values, SumOp::add(),
                              {.with_total = true, .with_next = true});
  // Paper: O(p/k + log k) cycles, O(p) messages. Constants here cover the
  // bottom-up + top-down phases plus both optional steps.
  std::size_t logk = 1;
  while ((std::size_t{1} << logk) < k) ++logk;
  const auto cycle_bound = 6 * (p / k + 1) + 4 * logk + 2;
  EXPECT_LE(out.stats.cycles, cycle_bound) << "p=" << p << " k=" << k;
  EXPECT_LE(out.stats.messages, 4 * p) << "p=" << p << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartialSumsShapes,
    ::testing::ValuesIn(std::vector<std::pair<std::size_t, std::size_t>>{
        {1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 2}, {7, 3}, {8, 2},
        {8, 8}, {13, 4}, {16, 4}, {31, 8}, {32, 8}, {33, 8}, {64, 1},
        {64, 16}, {100, 10}, {128, 32}}),
    [](const auto& pinfo) {
      // Built by append: operator+ chains over std::to_string temporaries
      // trip GCC 12's -Wrestrict false positive (PR105329) at -O3.
      std::string name = "p";
      name += std::to_string(pinfo.param.first);
      name += "_k";
      name += std::to_string(pinfo.param.second);
      return name;
    });

TEST(PartialSumsTest, MaxOperator) {
  const std::size_t p = 13, k = 4;
  util::Xoshiro256StarStar rng(5);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-1000, 1000);
  auto out = run_partial_sums(p, k, values, SumOp::max(),
                              {.with_total = true});
  Word running = std::numeric_limits<Word>::min();
  for (std::size_t i = 0; i < p; ++i) {
    running = std::max(running, values[i]);
    EXPECT_EQ(out.results[i].self, running);
    EXPECT_EQ(out.results[i].total,
              *std::max_element(values.begin(), values.end()));
  }
}

TEST(PartialSumsTest, MinOperator) {
  const std::size_t p = 9, k = 3;
  std::vector<Word> values{5, -2, 8, 0, 3, -7, 4, 1, 2};
  auto out = run_partial_sums(p, k, values, SumOp::min());
  Word running = std::numeric_limits<Word>::max();
  for (std::size_t i = 0; i < p; ++i) {
    running = std::min(running, values[i]);
    EXPECT_EQ(out.results[i].self, running);
  }
}

TEST(PartialSumsTest, SingleProcessorShortCircuits) {
  auto out = run_partial_sums(1, 1, {42}, SumOp::add(),
                              {.with_total = true, .with_next = true});
  EXPECT_EQ(out.stats.cycles, 0u);
  EXPECT_EQ(out.stats.messages, 0u);
  EXPECT_EQ(out.results[0].before, 0);
  EXPECT_EQ(out.results[0].self, 42);
  EXPECT_EQ(out.results[0].next, 42);
  EXPECT_EQ(out.results[0].total, 42);
}

TEST(PartialSumsTest, ComposesSequentially) {
  // Two collectives back to back on the same network must not interfere:
  // the second runs over the outputs of the first.
  const std::size_t p = 8, k = 2;
  std::vector<Word> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<Word> finals(p);
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self, Word a, Word& final_out) -> ProcMain {
    auto first = co_await partial_sums(self, a, SumOp::add());
    auto second = co_await partial_sums(self, first.self, SumOp::max());
    final_out = second.self;
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), values[i], finals[i]));
  }
  net.run();
  // First pass prefixes: 1,3,6,10,15,21,28,36 — monotone, so the running
  // max equals the prefix itself.
  std::vector<Word> expect{1, 3, 6, 10, 15, 21, 28, 36};
  EXPECT_EQ(finals, expect);
}

TEST(PartialSumsTest, StockOperatorsOutliveASplitAwait) {
  // partial_sums holds its operator by reference across suspensions, so the
  // stock operators are shared instances: a task built in one statement and
  // awaited in the next must not see a destroyed temporary.
  EXPECT_EQ(&SumOp::add(), &SumOp::add());
  EXPECT_EQ(&SumOp::max(), &SumOp::max());
  EXPECT_EQ(&SumOp::min(), &SumOp::min());
  const std::size_t p = 8, k = 2;
  std::vector<Word> got(p);
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self, Word& out) -> ProcMain {
    auto task = partial_sums(self, Word{1}, SumOp::add(), {.with_total = true});
    const auto res = co_await task;
    out = res.self * 100 + res.total;
  };
  for (ProcId i = 0; i < p; ++i) net.install(i, prog(net.proc(i), got[i]));
  net.run();
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_EQ(got[i], static_cast<Word>((i + 1) * 100 + p)) << "P" << i + 1;
  }
}

// --- deep tree paths --------------------------------------------------------

// A processor keeps its tree values inline up to level 3 and on the heap
// from level 4 (one processor in 16); the pinned table stops at p = 1000,
// so these shapes exercise the heap path at depth 8, 9 and 12, including
// P_1's root path, over every option combination on both engines. The
// paper's accounting must not see the split: every processor still notes
// depth + 1 words.
TEST(PartialSumsTest, DeepTreePathsMatchInclusiveScan) {
  for (std::size_t p : {std::size_t{256}, std::size_t{257},
                        std::size_t{4096}}) {
    util::Xoshiro256StarStar rng(p);
    std::vector<Word> values(p);
    for (auto& v : values) v = rng.uniform(-1000, 1000);
    std::vector<Word> incl(p);
    std::inclusive_scan(values.begin(), values.end(), incl.begin());
    const std::size_t depth = std::bit_width(p - 1);
    for (std::size_t k : {std::size_t{1}, std::size_t{8}}) {
      for (unsigned bits = 0; bits < 4; ++bits) {
        const PartialSumsOptions opts{.with_total = (bits & 1) != 0,
                                      .with_next = (bits & 2) != 0};
        for (Engine engine : {Engine::kEventDriven, Engine::kReference}) {
          SCOPED_TRACE(::testing::Message()
                       << "p=" << p << " k=" << k << " opts=" << bits
                       << (engine == Engine::kReference ? " reference"
                                                        : " event"));
          const auto out =
              run_partial_sums(p, k, values, SumOp::add(), opts, engine);
          for (std::size_t i = 0; i < p; ++i) {
            const auto& r = out.results[i];
            ASSERT_EQ(r.before, i == 0 ? 0 : incl[i - 1]) << "P" << i + 1;
            ASSERT_EQ(r.self, incl[i]) << "P" << i + 1;
            if (opts.with_next) {
              ASSERT_EQ(r.next, incl[std::min(i + 1, p - 1)]) << "P" << i + 1;
            }
            if (opts.with_total) {
              ASSERT_EQ(r.total, incl[p - 1]) << "P" << i + 1;
            }
          }
          ASSERT_EQ(out.stats.peak_aux_words,
                    std::vector<std::size_t>(p, depth + 1));
        }
      }
    }
  }
}

// --- exact schedule ---------------------------------------------------------

/// One pinned schedule. `opts` bit 0 = with_total, bit 1 = with_next.
/// `counts` fingerprints messages_per_proc, messages_per_channel and
/// peak_aux_words; `trace` fingerprints the full event stream.
struct Pinned {
  std::size_t p, k;
  unsigned opts;
  std::uint64_t cycles, messages, counts, trace;
};

std::vector<std::size_t> pinned_ks(std::size_t p) {
  std::vector<std::size_t> ks;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}, p}) {
    if (k <= p && std::find(ks.begin(), ks.end(), k) == ks.end()) {
      ks.push_back(k);
    }
  }
  return ks;
}

Pinned measure(std::size_t p, std::size_t k, unsigned opts, Engine engine) {
  util::Xoshiro256StarStar rng(p * 131 + k);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-1000, 1000);
  TraceFingerprint trace;
  const auto out = run_partial_sums(
      p, k, values, SumOp::add(),
      {.with_total = (opts & 1) != 0, .with_next = (opts & 2) != 0}, engine,
      &trace);
  return Pinned{p,
                k,
                opts,
                out.stats.cycles,
                out.stats.messages,
                counts_fingerprint(out.stats),
                trace.value()};
}

const std::vector<std::size_t> kPinnedPs = {2,  3,   5,   7,   8,   63,
                                            64, 65, 127, 128, 129, 1000};

// Generated from the Partial-Sums implementation that walked every tree
// level per processor; any change to the schedule shows up here.
const Pinned kPinnedSchedules[] = {
    {2, 1, 0, 2, 2, 0xe9ff8da03bcc3317ull, 0x4ff237506a4a8e51ull},
    {2, 1, 1, 3, 3, 0x6248066295d7af35ull, 0x955b6c3fad3baf56ull},
    {2, 1, 2, 3, 3, 0x1d7f668ed408ccd5ull, 0x19a4a873c9c029d6ull},
    {2, 1, 3, 4, 4, 0x1b1f8ad06a21b8f1ull, 0xc0db9b4c963dc4c9ull},
    {2, 2, 0, 2, 2, 0xffd19e568c1338f7ull, 0xdf7780bd6c14b261ull},
    {2, 2, 1, 3, 3, 0x23f7eb88d7b65ad5ull, 0xf8db7b99bf2b2f9aull},
    {2, 2, 2, 3, 3, 0x09fbf68692e0a675ull, 0xabfb54f3ee3d76daull},
    {2, 2, 3, 4, 4, 0xd9cfcea795e85411ull, 0xa23141a425bd96fdull},
    {3, 1, 0, 6, 4, 0xbd85f35cf0091090ull, 0x1b632d61e70fd463ull},
    {3, 1, 1, 7, 5, 0xdee6abd71d753a50ull, 0x15f20bfc42b20f27ull},
    {3, 1, 2, 8, 6, 0xa8d79327eacafa32ull, 0x0aa9cceaf9c4e495ull},
    {3, 1, 3, 9, 7, 0x21feb1118c0895b2ull, 0x6c632bcda706fefdull},
    {3, 2, 0, 4, 4, 0xf34a77431178cdf0ull, 0xcbb4fe1efec65a43ull},
    {3, 2, 1, 5, 5, 0x25be7d70204de7b0ull, 0xae672dc68e765edaull},
    {3, 2, 2, 5, 6, 0x6c27d1651f242db0ull, 0x6afbe30e0225bc31ull},
    {3, 2, 3, 6, 7, 0xbe1c64848a09b0b2ull, 0x871a3187465a608full},
    {3, 3, 0, 4, 4, 0x5f7ace1bc10aaf50ull, 0x5677befeedf9788full},
    {3, 3, 1, 5, 5, 0xdcb21b257aa9c710ull, 0xbb78dc3f5157e04cull},
    {3, 3, 2, 5, 6, 0x382b7e2b9e84cd10ull, 0xbb7ac4001bc58a59ull},
    {3, 3, 3, 6, 7, 0xcb87db39216585d2ull, 0x082ee5f81e369125ull},
    {5, 1, 0, 14, 8, 0xe279758d86c0f1e9ull, 0xe014eaf994c02954ull},
    {5, 1, 1, 15, 9, 0xb88436b3731df06full, 0xf2d83824551f8fa6ull},
    {5, 1, 2, 18, 12, 0x7937ab158f888bafull, 0x85da3d9e03dc7870ull},
    {5, 1, 3, 19, 13, 0xbd38b9923da5f2a9ull, 0x6d681000f0c9c402ull},
    {5, 2, 0, 8, 8, 0x60e7403ca42ca1d5ull, 0x62a569d8d411c5b5ull},
    {5, 2, 1, 9, 9, 0xf329f46685440193ull, 0x0282e8f1612002aaull},
    {5, 2, 2, 10, 12, 0x2bf126a98a6c6a8full, 0x5d86b5fdae2c333cull},
    {5, 2, 3, 11, 13, 0x6930eba2a93a18c9ull, 0x1deb3063355fe7a1ull},
    {5, 3, 0, 8, 8, 0x890f9831e4328af5ull, 0xe3cc8df110a559e6ull},
    {5, 3, 1, 9, 9, 0xc97e0509b5cdf173ull, 0xa41dae8df6745351ull},
    {5, 3, 2, 10, 12, 0xaba9049694c173c9ull, 0xb1d424a823cee913ull},
    {5, 3, 3, 11, 13, 0x176e089ad178b84full, 0x92643c7c1fbcce9cull},
    {5, 5, 0, 6, 8, 0x90072f8861ba3135ull, 0xb11dbca0c4edb129ull},
    {5, 5, 1, 7, 9, 0x12f18e99f60f1b33ull, 0xa9661ae60b2c03a5ull},
    {5, 5, 2, 7, 12, 0xcb251a5683725fb7ull, 0x1e44d61118e72dceull},
    {5, 5, 3, 8, 13, 0x575d18172a02aaefull, 0x061aa951521dfaddull},
    {7, 1, 0, 14, 12, 0xbf62e9767a1da88full, 0x1ae1d70ae56515ddull},
    {7, 1, 1, 15, 13, 0xb4642171da973789ull, 0x326f6ee955e29062ull},
    {7, 1, 2, 20, 18, 0xa4364841886aa4e7ull, 0x9c7bdb42dcd5f3e3ull},
    {7, 1, 3, 21, 19, 0x514436f30c1e0921ull, 0xa09b5f59fe1856c4ull},
    {7, 2, 0, 8, 12, 0x825eb9977c69836full, 0xf7c425917ba7200eull},
    {7, 2, 1, 9, 13, 0x7c2b2ea74d7843a9ull, 0x0daa911bbc65698eull},
    {7, 2, 2, 11, 18, 0x0aed4ad18af8b469ull, 0xf4d8d7f9c87c8067ull},
    {7, 2, 3, 12, 19, 0x5149f3c755a6ba69ull, 0x5ab55f6362f3badeull},
    {7, 3, 0, 8, 12, 0x829993bccd9896d3ull, 0xfd10bb5a71de6b67ull},
    {7, 3, 1, 9, 13, 0x45b4ef3f20cf8b55ull, 0x3cc2e82ff330020eull},
    {7, 3, 2, 10, 18, 0xa9e7529ba086f0efull, 0x2ad1778b6676448full},
    {7, 3, 3, 11, 19, 0xb6d98af3e1208729ull, 0x5d7c553632fea496ull},
    {7, 5, 0, 6, 12, 0x738d0047b02b9093ull, 0xc924dac6ef91383dull},
    {7, 5, 1, 7, 13, 0x9a1b01e803d90995ull, 0x016980027977edbbull},
    {7, 5, 2, 8, 18, 0x30e573e0d01da2abull, 0xcb89a8174e387e63ull},
    {7, 5, 3, 9, 19, 0xb3d0430e20dd4cedull, 0xa80f1e2c6565d131ull},
    {7, 7, 0, 6, 12, 0x47bff32bb12e7e53ull, 0x0029c165f5115ec9ull},
    {7, 7, 1, 7, 13, 0x76dd5ae98847bdd5ull, 0x27046b69f4af86d7ull},
    {7, 7, 2, 7, 18, 0xfb097361cb6b4615ull, 0x1ede47cf696aab39ull},
    {7, 7, 3, 8, 19, 0xcc0abefce67f650dull, 0x5a3a64960fcf8930ull},
    {8, 1, 0, 14, 14, 0x9b6e926a3488b7ebull, 0xcb8d00b080bc8009ull},
    {8, 1, 1, 15, 15, 0x9f48712c6678e40dull, 0x16c65208974a7231ull},
    {8, 1, 2, 21, 21, 0x5ca4a61edd25d287ull, 0xdca4e73d1c5c1cccull},
    {8, 1, 3, 22, 22, 0x2faeea9ea9b6dde3ull, 0x17552eab2a85defcull},
    {8, 2, 0, 8, 14, 0x05018002e8ec4c8bull, 0xa1b734fa5b298e71ull},
    {8, 2, 1, 9, 15, 0x59f6938e6dcf626dull, 0x4effc7f7bf9fb461ull},
    {8, 2, 2, 12, 21, 0x82c77d27877d4557ull, 0x53440c4d9b9403ddull},
    {8, 2, 3, 13, 22, 0xaa06c77991333771ull, 0x2c24327385bb21d2ull},
    {8, 3, 0, 8, 14, 0x2b99a78989b376abull, 0x475bd839f6aad2bdull},
    {8, 3, 1, 9, 15, 0xaf547e9cf40d3f4dull, 0x7e01e7d785ebe665ull},
    {8, 3, 2, 11, 21, 0x4489bb531a69c28bull, 0xd47f54a371ffeb46ull},
    {8, 3, 3, 12, 22, 0x21af5714826056ebull, 0x5af6970256a3e98eull},
    {8, 5, 0, 6, 14, 0x52faa7fe64ca23b7ull, 0xf644bc1ab75458cdull},
    {8, 5, 1, 7, 15, 0xab59375b9711ac51ull, 0x2e103e857e048fd5ull},
    {8, 5, 2, 8, 21, 0x0b73b7bb143aac2dull, 0x85c92b7f891db9e6ull},
    {8, 5, 3, 9, 22, 0xf7a913df355d430bull, 0x4d86614e3ee57469ull},
    {8, 8, 0, 6, 14, 0x0f322ab181499957ull, 0x2e6cacfbfcb8f851ull},
    {8, 8, 1, 7, 15, 0xd27acdfedb636bb1ull, 0x2ecb9635d4996809ull},
    {8, 8, 2, 7, 21, 0x66e16e527486df51ull, 0xe23b9476e4bb2025ull},
    {8, 8, 3, 8, 22, 0xe11adc3d3bda74a9ull, 0x386368d8bf4a5579ull},
    {63, 1, 0, 126, 124, 0xdf77698a339f5e1cull, 0x18c1b6c4b06b9241ull},
    {63, 1, 1, 127, 125, 0x09e124f63e15b15cull, 0xa6e5f93001f112c5ull},
    {63, 1, 2, 188, 186, 0xd51ce225bb1ea6baull, 0x7938fce06417dba3ull},
    {63, 1, 3, 189, 187, 0x482fc7781ac5853aull, 0x89d9bfd9ae23569full},
    {63, 2, 0, 64, 124, 0xf2125afa4df8a23cull, 0x4972d4733dcd59a0ull},
    {63, 2, 1, 65, 125, 0x05011eccae13357cull, 0x7c41a75e0cbbb921ull},
    {63, 2, 2, 95, 186, 0xbeb31cacd42862f4ull, 0x52d031728f98228dull},
    {63, 2, 3, 96, 187, 0xba1c70e44f8797faull, 0xe56f871e29997e75ull},
    {63, 3, 0, 48, 124, 0x519080eebadf665cull, 0xb214ad0e6a2d6fc9ull},
    {63, 3, 1, 49, 125, 0x6ffcb466bc6c661cull, 0x305e9a5a0d29cd85ull},
    {63, 3, 2, 69, 186, 0x0177559c69749010ull, 0x8152019173055ce3ull},
    {63, 3, 3, 70, 187, 0xd043fdf1c5c28cd2ull, 0x42975b438a21a0e4ull},
    {63, 5, 0, 32, 124, 0x02d289a132f352f0ull, 0x3daa512b2c73e475ull},
    {63, 5, 1, 33, 125, 0x16a45d54146e04b0ull, 0x274d436940e47b67ull},
    {63, 5, 2, 45, 186, 0x8aaf7a05e402bcecull, 0x6c6d25b70158995full},
    {63, 5, 3, 46, 187, 0x0512bc41df8b5e2eull, 0x2f7d35ca42b4bb6aull},
    {63, 8, 0, 20, 124, 0xed9d74f0f02384b4ull, 0x3b65ec26b2e880b2ull},
    {63, 8, 1, 21, 125, 0x7cda8809bb8fd074ull, 0x3e5bcc2f2c167f4cull},
    {63, 8, 2, 28, 186, 0x45d289793a54c6b0ull, 0x2c01b9bf164825fbull},
    {63, 8, 3, 29, 187, 0x208aef9ad1741a30ull, 0x461b62b1a8a61e39ull},
    {63, 63, 0, 12, 124, 0x916302c4d877ce54ull, 0x4778f75cb8d1ceb1ull},
    {63, 63, 1, 13, 125, 0x07d82f6f6bec3a14ull, 0x243a28361f2e6228ull},
    {63, 63, 2, 13, 186, 0x0a503a417e8c0854ull, 0x5b2e98a27f7e9b9full},
    {63, 63, 3, 14, 187, 0x93dfcc7088ed4016ull, 0x36c357077573b3e9ull},
    {64, 1, 0, 126, 126, 0x46dd5f047a3b597bull, 0xd4b652786a54a7c5ull},
    {64, 1, 1, 127, 127, 0x0aee385fc93f599bull, 0x710827317ebff725ull},
    {64, 1, 2, 189, 189, 0xcfeaa18a7f055b59ull, 0xa7a3eea45372df60ull},
    {64, 1, 3, 190, 190, 0x46341148b1b613bbull, 0xec6c64da13b14514ull},
    {64, 2, 0, 64, 126, 0xae0e1a4559cad55bull, 0x4d0cdece3f0d6aadull},
    {64, 2, 1, 65, 127, 0xf20e2e1bc9920cfbull, 0x0d016d433761858dull},
    {64, 2, 2, 96, 189, 0xdf3b6deafe8f4259ull, 0xcd56c87d50a86a7dull},
    {64, 2, 3, 97, 190, 0x24c19ab0dfa44e39ull, 0x2627f0814e19187eull},
    {64, 3, 0, 48, 126, 0x6d1177ba26c0137bull, 0x533989855a4fbf55ull},
    {64, 3, 1, 49, 127, 0xca051d82694af41bull, 0x71d0bb8d5b646595ull},
    {64, 3, 2, 69, 189, 0x4f57fcd635a98c77ull, 0x4b22d17501a99f45ull},
    {64, 3, 3, 70, 190, 0xf88bc0d180014015ull, 0x5f18416ed4964511ull},
    {64, 5, 0, 32, 126, 0xeda3fcd05bf9cc13ull, 0xc2a1737b2c3b47cdull},
    {64, 5, 1, 33, 127, 0x48431c79df77f833ull, 0xe5f67022c6d9f38dull},
    {64, 5, 2, 45, 189, 0x4aa0aadd1cbdfcd7ull, 0x0630ea0cbcb8ad11ull},
    {64, 5, 3, 46, 190, 0x3844ee23c5f2eb35ull, 0x7ca6ded4b444c451ull},
    {64, 8, 0, 20, 126, 0xca37456b6160f153ull, 0x40e83d3ee1f1af31ull},
    {64, 8, 1, 21, 127, 0x33979551d241bf33ull, 0xc659f46dd64f3311ull},
    {64, 8, 2, 28, 189, 0x501eaa905926e5d1ull, 0x357d57df13a4aa6dull},
    {64, 8, 3, 29, 190, 0xf70458a21d180df1ull, 0x80f4d7d293e7b712ull},
    {64, 64, 0, 12, 126, 0x1c6a2e214ab07253ull, 0xb6853ac836da0689ull},
    {64, 64, 1, 13, 127, 0xf73633e157be6033ull, 0xb3db67c361b93869ull},
    {64, 64, 2, 13, 189, 0x70bdd1ac745e7653ull, 0x92a4739bb72220a9ull},
    {64, 64, 3, 14, 190, 0x6d275d3fb3fe83b1ull, 0x9164350830934061ull},
    {65, 1, 0, 254, 128, 0x3e9193fd21df3dbdull, 0x5cb98d2c8e2edee4ull},
    {65, 1, 1, 255, 129, 0x6ad924b36add6233ull, 0x7835b0d238614c26ull},
    {65, 1, 2, 318, 192, 0x1e4d534618d359bfull, 0xde6889d683548c0cull},
    {65, 1, 3, 319, 193, 0x44f9bf4650f1ec31ull, 0xa46e48e1bc866cdaull},
    {65, 2, 0, 128, 128, 0x5140fc33a4f23b11ull, 0xd0104c2160698fabull},
    {65, 2, 1, 129, 129, 0xfd46c1bba32cf0dfull, 0x0b9bf2cf12d8e48aull},
    {65, 2, 2, 160, 192, 0x7390322d48076813ull, 0x2efd7f156a82c4cbull},
    {65, 2, 3, 161, 193, 0x95d26b974b6587ddull, 0x6cb4f101c4efd39aull},
    {65, 3, 0, 92, 128, 0x01881be436a5ce71ull, 0x6dcd01c5f87e6c38ull},
    {65, 3, 1, 93, 129, 0x15c3ba7eb4dbfb7full, 0x11e1cfcf379aa6e2ull},
    {65, 3, 2, 114, 192, 0xe82e105099e409c1ull, 0x6a97ec7acf69fbb5ull},
    {65, 3, 3, 115, 193, 0x30bddddacbd14fefull, 0x2036c1df77529033ull},
    {65, 5, 0, 58, 128, 0x0afd61931fc5d619ull, 0xe2387923be70c4eeull},
    {65, 5, 1, 59, 129, 0xbff0a52d81b9d7d7ull, 0xec8d897a06399f14ull},
    {65, 5, 2, 71, 192, 0x4a180d717c8ad41full, 0x66443007774f0e3dull},
    {65, 5, 3, 72, 193, 0xbaf09a600cf1cc3full, 0xb40574248c8d4138ull},
    {65, 8, 0, 36, 128, 0x8bc82735766f7259ull, 0xd553b6f9739e34baull},
    {65, 8, 1, 37, 129, 0x85a981de02440597ull, 0x03739a616a39fd02ull},
    {65, 8, 2, 44, 192, 0xc782c3a09b7df9dbull, 0xdc4c8820df6f33faull},
    {65, 8, 3, 45, 193, 0xd9ada1269efbfc15ull, 0x74695c3ac92f7ceeull},
    {65, 65, 0, 14, 128, 0x6e38ff9366436a79ull, 0x30dade0bd6b8689dull},
    {65, 65, 1, 15, 129, 0x9096469ac7f1af77ull, 0xb2a751a5b2f536deull},
    {65, 65, 2, 15, 192, 0xae61729e4948283bull, 0xf8dca4f536b7553aull},
    {65, 65, 3, 16, 193, 0xcf9295cc147de49bull, 0xb35a6ec740963fbeull},
    {127, 1, 0, 254, 252, 0x1550839a80968693ull, 0x4126e8f67563dbf5ull},
    {127, 1, 1, 255, 253, 0xfe1d0e6c2ddb2d1dull, 0xcdae23be71fdef15ull},
    {127, 1, 2, 380, 378, 0x0d55e2635a643dd0ull, 0x0d9fc81ebcb4a27bull},
    {127, 1, 3, 381, 379, 0xf791e9bd968f792aull, 0x22cd9aa7250cfe33ull},
    {127, 2, 0, 128, 252, 0xde8c4955770adab3ull, 0x254e135d0e5919ccull},
    {127, 2, 1, 129, 253, 0x7264e0ca13d0f8fdull, 0xaad4916c08756a88ull},
    {127, 2, 2, 191, 378, 0xb0c27bcd77890675ull, 0x232564cdb37350fdull},
    {127, 2, 3, 192, 379, 0xc6f15cb9851763b5ull, 0xa8ff6e1161a08368ull},
    {127, 3, 0, 92, 252, 0x5a310073303d849full, 0x79c504cb91734e2full},
    {127, 3, 1, 93, 253, 0xc234993fd5440811ull, 0x0c0da2170b4addd2ull},
    {127, 3, 2, 134, 378, 0x24e02f05c331df33ull, 0x69e6153cb252d5f3ull},
    {127, 3, 3, 135, 379, 0x2a68561271d7dffdull, 0xafdec30aa65440e6ull},
    {127, 5, 0, 58, 252, 0xb0148d5b24691453ull, 0x7d90d5e865db8345ull},
    {127, 5, 1, 59, 253, 0x8429d07f42b8efddull, 0x7e21dbc5a35cb55eull},
    {127, 5, 2, 84, 378, 0x81dbcfe514b7a683ull, 0xd975e9212dec9ea7ull},
    {127, 5, 3, 85, 379, 0x8d372ba976d909adull, 0x28e8233fe094a7a0ull},
    {127, 8, 0, 36, 252, 0x1624a22b4538d63bull, 0x49530c86e3df6c12ull},
    {127, 8, 1, 37, 253, 0x82fa88bba44149f5ull, 0xb418fb78171b473bull},
    {127, 8, 2, 52, 378, 0xef4671915357caf1ull, 0x0e8e2201a9e1b5efull},
    {127, 8, 3, 53, 379, 0xcc0f6520892d20ffull, 0x99d2d3b5c0d5e60eull},
    {127, 127, 0, 14, 252, 0x9a95d49be904badfull, 0x985fc0dfe4062145ull},
    {127, 127, 1, 15, 253, 0x56c9194d64695f51ull, 0x94dda12b051673e2ull},
    {127, 127, 2, 15, 378, 0x1754d44c72d97611ull, 0x2df2f8560dd10121ull},
    {127, 127, 3, 16, 379, 0xf9e53842103d51f1ull, 0x078b68ec34a79759ull},
    {128, 1, 0, 254, 254, 0x426af962349811fbull, 0x36352dfd3672f115ull},
    {128, 1, 1, 255, 255, 0x54afb0ad67534fd5ull, 0xf188c3796f5f8eb5ull},
    {128, 1, 2, 381, 381, 0x2aeebcfff07ad89cull, 0x757f0f69e33743e4ull},
    {128, 1, 3, 382, 382, 0x767956eebe11f140ull, 0xf070bb01751a86b0ull},
    {128, 2, 0, 128, 254, 0xb19b10cae550cd5bull, 0x2d01808bb5ec7c85ull},
    {128, 2, 1, 129, 255, 0x8a470fec41d64e75ull, 0xd1696e3b55792d65ull},
    {128, 2, 2, 192, 381, 0x79b3581755560f17ull, 0xca6a5c6c62193425ull},
    {128, 2, 3, 193, 382, 0x5bd0fd0de7eeab79ull, 0xb5901ab1ff30d7deull},
    {128, 3, 0, 92, 254, 0x1c9b0f4d18e54073ull, 0x25022db11122d265ull},
    {128, 3, 1, 93, 255, 0x686bcff6230d221dull, 0x08717ba5aec86345ull},
    {128, 3, 2, 135, 381, 0x1359eed878a2a9dbull, 0x82625d08f0e1bf96ull},
    {128, 3, 3, 136, 382, 0xe08ea716e505a62bull, 0x8d75a6756d23953eull},
    {128, 5, 0, 58, 254, 0xf592d6f47d6d4997ull, 0xa4b79b0e0da99a95ull},
    {128, 5, 1, 59, 255, 0x42fc351e99b96939ull, 0x9393bb87191c25d5ull},
    {128, 5, 2, 84, 381, 0x52566f4bc2611679ull, 0xedd3978241efc4b6ull},
    {128, 5, 3, 85, 382, 0x571a4af05a16f7d7ull, 0x3285b270da229cadull},
    {128, 8, 0, 36, 254, 0x28c856265eef10d3ull, 0x21826921a3c3fd81ull},
    {128, 8, 1, 37, 255, 0xb9927bd989fdec3dull, 0xee0b4e517c904661ull},
    {128, 8, 2, 52, 381, 0x71963a654990f25full, 0x1df6c67a7e19e309ull},
    {128, 8, 3, 53, 382, 0x3e927503159391f1ull, 0xfa18f57461671232ull},
    {128, 128, 0, 14, 254, 0x15d65268b49ff2d7ull, 0x3a5509cc78dc9cf1ull},
    {128, 128, 1, 15, 255, 0x5737cb25ce9d1539ull, 0x43ae9be359d7f371ull},
    {128, 128, 2, 15, 381, 0x45934a5c3adf8559ull, 0xe7fa791a5248ac39ull},
    {128, 128, 3, 16, 382, 0x79df04cd75658c99ull, 0x3eaea020f421ea79ull},
    {129, 1, 0, 510, 256, 0x69b936c363d60e89ull, 0x49568850b41e32a9ull},
    {129, 1, 1, 511, 257, 0xdbc7312ff5d53649ull, 0x6fe8c67e59292d5eull},
    {129, 1, 2, 638, 384, 0xa7c11e03a1735075ull, 0xeb40972fe225d2b9ull},
    {129, 1, 3, 639, 385, 0x22754b56845c9435ull, 0x921a4a8bc8d3318aull},
    {129, 2, 0, 256, 256, 0x738bcfcdddf66f7eull, 0x867a73b4fc86c91eull},
    {129, 2, 1, 257, 257, 0x2f755a1ee847dabeull, 0x4f8df0745cb156c3ull},
    {129, 2, 2, 320, 384, 0x14996719141956f2ull, 0x5a4dc748ed6c9d4aull},
    {129, 2, 3, 321, 385, 0xadd4a2dd0c0ab932ull, 0x5b17ca3e84eb43c7ull},
    {129, 3, 0, 178, 256, 0x9465b774467bbdd6ull, 0x6845bf5fd0fec0b5ull},
    {129, 3, 1, 179, 257, 0x67b43a19c1e58416ull, 0x2f0732bba995e07aull},
    {129, 3, 2, 221, 384, 0x8266ce44679d7320ull, 0xa6679c57d33bb685ull},
    {129, 3, 3, 222, 385, 0x5ad4e768e8714f22ull, 0x2b555082cb568701ull},
    {129, 5, 0, 110, 256, 0xb6c9d0d2c0b31e76ull, 0x0b183405e10d3837ull},
    {129, 5, 1, 111, 257, 0x0a0a7874f248ce36ull, 0x7cdbd79fe47da656ull},
    {129, 5, 2, 136, 384, 0x25e2b97875be01b8ull, 0x29a3896782e1a570ull},
    {129, 5, 3, 137, 385, 0x6d7a3638481972f8ull, 0xa6fc8b16bb0e3389ull},
    {129, 8, 0, 68, 256, 0x85d49f93dee71b36ull, 0x161e1811d4df3ef7ull},
    {129, 8, 1, 69, 257, 0x1f1b6def93e848f6ull, 0x80fd6a09e4a36fb1ull},
    {129, 8, 2, 84, 384, 0xb0c70c9ae2ac50baull, 0x83634cfccf9a5a0bull},
    {129, 8, 3, 85, 385, 0x08bf20fcdc3fe47aull, 0x5e8247659e8380d1ull},
    {129, 129, 0, 16, 256, 0xf05fed11ab0c3abeull, 0xe726e58ef3fdf662ull},
    {129, 129, 1, 17, 257, 0x7b9e2ca86067627eull, 0x337c4789094c8e32ull},
    {129, 129, 2, 17, 384, 0x78e539e9c8d9f9f2ull, 0xf9135add923f0fb5ull},
    {129, 129, 3, 18, 385, 0x12fdf0f8f8711370ull, 0xfd65064d52569972ull},
    {1000, 1, 0, 2046, 1998, 0x1cc95bba5c3a74feull, 0x63aab7e88888e146ull},
    {1000, 1, 1, 2047, 1999, 0x1b223bfa4c527cdeull, 0x11b9f31363b5a09eull},
    {1000, 1, 2, 3045, 2997, 0x47b89748ce96b6d8ull, 0x59451da261f32cd6ull},
    {1000, 1, 3, 3046, 2998, 0x2eb11b0b614811d6ull, 0x448d1e0c6119ff52ull},
    {1000, 2, 0, 1024, 1998, 0x50a8413a119f7e27ull, 0x25bde99521617492ull},
    {1000, 2, 1, 1025, 1999, 0xcccf9a59a9f2e807ull, 0x2109d10d46ee2ccaull},
    {1000, 2, 2, 1524, 2997, 0xdf9f0b2bd2a5b6c5ull, 0x07bd9dff2d0d3e0dull},
    {1000, 2, 3, 1525, 2998, 0xe33d4f9837e20865ull, 0xdd033817de40e981ull},
    {1000, 3, 0, 692, 1998, 0xb6de3006550f01c5ull, 0x7b411f86adc05d64ull},
    {1000, 3, 1, 693, 1999, 0x486872b216a08de5ull, 0xb0028846b67856ccull},
    {1000, 3, 2, 1025, 2997, 0x12a8a7049bd376feull, 0xbdb2bc098e2b2a2cull},
    {1000, 3, 3, 1026, 2998, 0x973ffc13f737f2a8ull, 0x1b493ce2de746ef8ull},
    {1000, 5, 0, 420, 1998, 0xe9f3572c4f023e2cull, 0x6245a0950e04c051ull},
    {1000, 5, 1, 421, 1999, 0x4fa78f438873630cull, 0xfa0dea9078183ec9ull},
    {1000, 5, 2, 620, 2997, 0x9c4d72e5fa62d127ull, 0xe91df3f04214d4ceull},
    {1000, 5, 3, 621, 2998, 0x8f2c02eb7189f687ull, 0xc060b1e7327b9741ull},
    {1000, 8, 0, 260, 1998, 0xc37b1238ce65ffebull, 0xcff5c24fb69d0e32ull},
    {1000, 8, 1, 261, 1999, 0x32925708436bdbcbull, 0x0c60cb3ef1484092ull},
    {1000, 8, 2, 385, 2997, 0x076ddac18cf8f1abull, 0x4d7b50d46b9273f3ull},
    {1000, 8, 3, 386, 2998, 0xb03dc719a312625dull, 0xc51754952b5aa50bull},
    {1000, 1000, 0, 20, 1998, 0x69c6e5f46a7c3597ull, 0xe9f74f96b554011dull},
    {1000, 1000, 1, 21, 1999, 0x6fb52189143b5777ull, 0x0587968b957e1dfdull},
    {1000, 1000, 2, 21, 2997, 0xf9feb3110c7d3313ull, 0x83b5d0fd736be3f5ull},
    {1000, 1000, 3, 22, 2998, 0xbdfdf4a17a7371f1ull, 0x64c94a0fd2ba9a55ull},
};

TEST(PartialSumsSchedule, PinnedAcrossShapesAndEngines) {
  std::size_t checked = 0;
  for (std::size_t p : kPinnedPs) {
    for (std::size_t k : pinned_ks(p)) {
      for (unsigned opts = 0; opts < 4; ++opts) {
        const Pinned* want = nullptr;
        for (const Pinned& row : kPinnedSchedules) {
          if (row.p == p && row.k == k && row.opts == opts) want = &row;
        }
        ASSERT_NE(want, nullptr)
            << "no pinned row for p=" << p << " k=" << k << " opts=" << opts;
        for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
          const Pinned got = measure(p, k, opts, e);
          const auto label = testing::Message()
                             << "p=" << p << " k=" << k << " opts=" << opts
                             << (e == Engine::kReference ? " reference"
                                                         : " event");
          EXPECT_EQ(got.cycles, want->cycles) << label;
          EXPECT_EQ(got.messages, want->messages) << label;
          EXPECT_EQ(got.counts, want->counts) << label;
          EXPECT_EQ(got.trace, want->trace) << label;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedSchedules));
}

}  // namespace
}  // namespace mcb::algo
