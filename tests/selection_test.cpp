// Tests of the distributed selection algorithm (Section 8): correctness for
// all ranks and distributions, the >= 1/4 purge guarantee (via the
// O(log(kn/p)) phase count), the Corollary 7 cycle/message bounds, and the
// termination-phase threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/common.hpp"
#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "obs/span.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace mcb::algo {
namespace {

Word oracle_rank(const std::vector<std::vector<Word>>& inputs,
                 std::size_t d) {
  std::vector<Word> all;
  for (const auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::sort(all.begin(), all.end(), std::greater<Word>{});
  return all[d - 1];
}

struct Shape {
  std::size_t p, k, n;
  util::Shape dist;
};

class SelectionSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(SelectionSweep, SelectsSampledRanks) {
  const auto& prm = GetParam();
  auto w = util::make_workload(prm.n, prm.p, prm.dist, 42);
  for (std::size_t d : {std::size_t{1}, prm.n / 4, (prm.n + 1) / 2,
                        3 * prm.n / 4, prm.n}) {
    if (d == 0) continue;
    auto res = select_rank({.p = prm.p, .k = prm.k}, w.inputs, d);
    EXPECT_EQ(res.value, oracle_rank(w.inputs, d))
        << "d=" << d << " n=" << prm.n;
  }
}

TEST_P(SelectionSweep, PhaseCountIsLogarithmic) {
  const auto& prm = GetParam();
  auto w = util::make_workload(prm.n, prm.p, prm.dist, 7);
  auto res = select_median({.p = prm.p, .k = prm.k}, w.inputs);
  // Each phase purges >= ~1/4 of the candidates, so the number of phases is
  // at most log_{4/3}(n / threshold) + O(1).
  const double threshold =
      std::max<double>(double(prm.p) / double(prm.k), 1.0);
  const double bound =
      std::log(double(prm.n) / threshold) / std::log(4.0 / 3.0) + 2.0;
  EXPECT_LE(double(res.filter_phases), bound)
      << "n=" << prm.n << " p=" << prm.p << " k=" << prm.k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectionSweep,
    ::testing::ValuesIn(std::vector<Shape>{
        {4, 2, 64, util::Shape::kEven},
        {4, 2, 64, util::Shape::kZipf},
        {8, 4, 512, util::Shape::kEven},
        {8, 4, 512, util::Shape::kOneHot},
        {8, 2, 200, util::Shape::kRandom},
        {16, 4, 1024, util::Shape::kEven},
        {16, 4, 1024, util::Shape::kZipf},
        {16, 4, 999, util::Shape::kRandom},
        {32, 4, 4096, util::Shape::kEven},
        {5, 1, 100, util::Shape::kStaircase},
        {1, 1, 50, util::Shape::kEven},
        {3, 3, 99, util::Shape::kRandom},
    }),
    [](const auto& pinfo) {
      return "p" + std::to_string(pinfo.param.p) + "_k" +
             std::to_string(pinfo.param.k) + "_n" +
             std::to_string(pinfo.param.n) + "_" +
             util::to_string(pinfo.param.dist);
    });

TEST(SelectionTest, AllRanksSmallNetwork) {
  auto w = util::make_workload(48, 4, util::Shape::kRandom, 3);
  for (std::size_t d = 1; d <= 48; ++d) {
    auto res = select_rank({.p = 4, .k = 2}, w.inputs, d);
    ASSERT_EQ(res.value, oracle_rank(w.inputs, d)) << "d=" << d;
  }
}

TEST(SelectionTest, MedianConvenience) {
  auto w = util::make_workload(101, 5, util::Shape::kRandom, 9);
  auto res = select_median({.p = 5, .k = 2}, w.inputs);
  EXPECT_EQ(res.value, oracle_rank(w.inputs, 51));  // ceil(101/2)
}

TEST(SelectionTest, ThresholdOverride) {
  auto w = util::make_workload(256, 8, util::Shape::kEven, 5);
  // A huge threshold forces zero filtering phases (straight to the
  // termination phase); a tiny one forces more filtering.
  auto lazy = select_rank({.p = 8, .k = 4}, w.inputs, 128,
                          {.threshold = 10000});
  EXPECT_EQ(lazy.filter_phases, 0u);
  EXPECT_EQ(lazy.value, oracle_rank(w.inputs, 128));
  auto eager = select_rank({.p = 8, .k = 4}, w.inputs, 128, {.threshold = 1});
  EXPECT_GE(eager.filter_phases, 2u);
  EXPECT_EQ(eager.value, oracle_rank(w.inputs, 128));
}

TEST(SelectionTest, CycleAndMessageBounds) {
  // Corollary 7 regime: d ~ n/2, p >= k^2, n large. Verify the
  // O((p/k) log(kn/p)) cycle and O(p log(kn/p)) message bounds with
  // generous constants.
  const std::size_t p = 32, k = 4, n = 8192;
  auto w = util::make_workload(n, p, util::Shape::kEven, 11);
  auto res = select_median({.p = p, .k = k}, w.inputs);
  const double logterm =
      std::log2(double(k) * double(n) / double(p)) + 1.0;
  EXPECT_LE(double(res.stats.cycles),
            40.0 * (double(p) / double(k)) * logterm);
  EXPECT_LE(double(res.stats.messages), 40.0 * double(p) * logterm);
}

TEST(SelectionTest, ExtremeRanksAndTinyInputs) {
  std::vector<std::vector<Word>> inputs{{5}, {3}, {9}, {1}};
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 1).value, 9);
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 4).value, 1);
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 2).value, 5);
}

TEST(SelectionTest, SingleProcessor) {
  std::vector<std::vector<Word>> inputs{{10, 40, 20, 30}};
  EXPECT_EQ(select_rank({.p = 1, .k = 1}, inputs, 2).value, 30);
}

TEST(SelectionTest, InvalidArgumentsRejected) {
  std::vector<std::vector<Word>> inputs{{1, 2}, {3, 4}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, inputs, 0),
               std::invalid_argument);
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, inputs, 5),
               std::invalid_argument);
  std::vector<std::vector<Word>> empty{{1}, {}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, empty, 1),
               std::invalid_argument);
  std::vector<std::vector<Word>> dummy{{1}, {kDummy}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, dummy, 1),
               std::invalid_argument);
}

/// One duplicate-key case: 8 processors holding 1-12 keys each from 0..9,
/// and three ranks to ask for (two random, then the median).
struct DuplicateKeyCase {
  std::vector<std::vector<Word>> inputs;
  std::vector<Word> all;
  std::vector<std::size_t> ds;
};

DuplicateKeyCase duplicate_key_case(std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  DuplicateKeyCase c;
  c.inputs.resize(8);
  for (auto& in : c.inputs) {
    in.resize(static_cast<std::size_t>(rng.uniform(1, 12)));
    for (Word& w : in) w = rng.uniform(0, 9);
    c.all.insert(c.all.end(), in.begin(), in.end());
  }
  const auto n = static_cast<std::int64_t>(c.all.size());
  c.ds = {static_cast<std::size_t>(rng.uniform(1, n)),
          static_cast<std::size_t>(rng.uniform(1, n)), (c.all.size() + 1) / 2};
  return c;
}

// Duplicate keys break the distinct-values precondition. Selection and
// select_ranks must then either still answer right or stop with
// std::invalid_argument naming that precondition — never a wrong value and
// never an internal-invariant std::logic_error.
TEST(SelectionTest, DuplicateKeysAnswerRightOrNameThePrecondition) {
  std::size_t answered = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto c = duplicate_key_case(seed);
    const auto& inputs = c.inputs;
    const auto& ds = c.ds;
    std::vector<Word> expect;
    for (std::size_t d : ds) {
      std::vector<Word> v = c.all;
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(d - 1),
                       v.end(), std::greater<Word>{});
      expect.push_back(v[d - 1]);
    }
    const auto check = [&](const std::string& what, const auto& run) {
      try {
        run();
        ++answered;
      } catch (const std::invalid_argument& e) {
        ++rejected;
        EXPECT_NE(std::string(e.what()).find(kDistinctValues),
                  std::string::npos)
            << what << " seed " << seed << ": " << e.what();
      } catch (const std::logic_error& e) {
        ADD_FAILURE() << what << " seed " << seed << ": " << e.what();
      }
    };
    check("select_rank", [&] {
      EXPECT_EQ(select_rank({.p = 8, .k = 2}, inputs, ds[0]).value,
                expect[0])
          << "seed " << seed << " d " << ds[0];
    });
    check("select_ranks", [&] {
      EXPECT_EQ(select_ranks({.p = 8, .k = 2}, inputs, ds).values, expect)
          << "seed " << seed;
    });
  }
  // Both outcomes occur over the grid, so each branch is exercised.
  EXPECT_GT(answered, 0u);
  EXPECT_GT(rejected, 0u);
}

// A run that stops on the precondition leaves its programs suspended inside
// the "filter" phase and its sub-protocol spans. Destroying the network
// must close those spans, then the phase span they nest in, while the
// network's counters are still alive: the recorder's stream is balanced
// once the network is gone.
TEST(SelectionTest, StoppedRunLeavesWellFormedSpansOnceNetworkIsGone) {
  std::size_t stopped = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto c = duplicate_key_case(seed);
    obs::Recorder rec;
    SimConfig cfg{.p = 8, .k = 2};
    cfg.span_sink = &rec;
    try {
      select_rank(cfg, c.inputs, c.ds[0]);
      continue;
    } catch (const std::invalid_argument& e) {
      ASSERT_NE(std::string(e.what()).find(kDistinctValues),
                std::string::npos)
          << e.what();
    }
    ++stopped;
    EXPECT_TRUE(rec.well_formed()) << "seed " << seed;
    EXPECT_FALSE(rec.records().empty()) << "seed " << seed;
  }
  EXPECT_GT(stopped, 0u);
}

// Host memory guard: the coroutine frames a selection holds at its peak,
// per processor. Program frames (installed before the run) and the frames
// of the collectives come from the network's arena, so arena_bytes_peak / p
// is the frame bytes of one processor at its deepest point: its program
// frame plus the two Columnsort frames, which the Partial-Sums and
// termination frames reuse. Measured 1280 B (a 512 B program block and two
// 384 B blocks; GCC 12, -O2 and -O3). A frame that grows past its size
// class moves it. Sanitizers and unoptimised builds lay frames out
// differently, and the arena-off build has none.
TEST(SelectionTest, ArenaBytesPerProcessorWithinBudget) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  GTEST_SKIP() << "frame sizes are those of an optimised, uninstrumented "
                  "build";
#endif
  if (!MCB_FRAME_ARENA_ENABLED) GTEST_SKIP() << "arena off";
  const std::size_t p = 4096, k = 8;
  auto w = util::make_workload(4 * p, p, util::Shape::kEven, 1);
  const auto res = select_median({.p = p, .k = k}, w.inputs);
  const double per_proc =
      static_cast<double>(res.stats.arena_bytes_peak) / static_cast<double>(p);
  EXPECT_LE(per_proc, 1280.0 * 1.25);
}

TEST(SelectionTest, NegativeValues) {
  std::vector<std::vector<Word>> inputs{{-5, -1}, {-9, -3}, {-7, -2}};
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 1).value, -1);
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 6).value, -9);
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 3).value, -3);
}

}  // namespace
}  // namespace mcb::algo
