// Unit tests of the shared Columnsort core internals: CorePlan and
// EvenSortPlan construction invariants, and the pair-carrying transform
// machinery driven directly on a minimal network.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "algo/columnsort_core.hpp"
#include "algo/columnsort_even.hpp"
#include "mcb/network.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

TEST(CorePlanTest, BuildInvariants) {
  for (auto [m, kk] : std::vector<std::pair<std::size_t, std::size_t>>{
           {12, 4}, {64, 8}, {240, 6}}) {
    auto plan = detail::CorePlan::build(m, kk);
    EXPECT_EQ(plan.m, m);
    EXPECT_EQ(plan.kk, kk);
    Cycle sum = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(plan.tables[t].size(), m * kk) << "transform " << t;
      EXPECT_TRUE(sched::is_permutation_table(plan.tables[t]));
      EXPECT_LE(plan.plans[t].cycles(), m);  // Koenig bound
      sum += plan.plans[t].cycles();
    }
    EXPECT_EQ(plan.core_cycles, sum);
  }
}

TEST(CorePlanTest, SingleColumnIsFree) {
  auto plan = detail::CorePlan::build(17, 1);
  EXPECT_EQ(plan.core_cycles, 0u);
}

TEST(CorePlanTest, InvalidDimensionsRejected) {
  EXPECT_THROW(detail::CorePlan::build(4, 3), std::invalid_argument);
  EXPECT_THROW(detail::CorePlan::build(9, 2), std::invalid_argument);
}

TEST(CorePlanTest, SharedOncePerShapeKeepingTheLastBuilt) {
  auto a = detail::CorePlan::shared(12, 4);
  EXPECT_EQ(detail::CorePlan::shared(12, 4).get(), a.get());
  EXPECT_EQ(a->m, 12u);
  EXPECT_EQ(a->kk, 4u);
  // Concurrent callers of one shape get one plan.
  std::vector<std::shared_ptr<const detail::CorePlan>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&got, i] { got[i] = detail::CorePlan::shared(64, 8); });
  }
  for (auto& th : threads) th.join();
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
  EXPECT_NE(got[0].get(), a.get());
  // Once unheld, only the most recently built plan (64 x 8) is kept.
  const std::weak_ptr<const detail::CorePlan> older = a;
  const std::weak_ptr<const detail::CorePlan> newest = got[0];
  a.reset();
  got.clear();
  EXPECT_TRUE(older.expired());
  EXPECT_FALSE(newest.expired());
  EXPECT_EQ(detail::CorePlan::shared(64, 8).get(), newest.lock().get());
}

TEST(CorePlanTest, SortColumnDescOrdersByKeyThenValue) {
  std::vector<KV> col{{3, 1}, {5, 0}, {3, 9}, {5, 2}, {-1, 7}};
  detail::sort_column_desc(col);
  const std::vector<KV> expect{{5, 2}, {5, 0}, {3, 9}, {3, 1}, {-1, 7}};
  EXPECT_EQ(col, expect);
}

TEST(CorePlanTest, SortColumnDescMatchesStdSortOracle) {
  // Every path of the column sort — merged runs, the comparison sort below
  // kRadixMinColumn rows and the radix sort from there on — against
  // std::sort: kDummy padding, negative and extreme keys, duplicate keys
  // with equal and different values, and all-equal, sorted and reversed
  // columns, at sizes around the cut-over.
  constexpr Word kMax = std::numeric_limits<Word>::max();
  const std::size_t cut = detail::kRadixMinColumn;
  util::Xoshiro256StarStar rng(0xc01);
  const auto random_col = [&rng](std::size_t n, Word lo, Word hi,
                                 Word vals) {
    std::vector<KV> col(n);
    for (KV& x : col) x = {rng.uniform(lo, hi), rng.uniform(0, vals)};
    return col;
  };
  std::size_t cases = 0;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{64}, cut - 1, cut, cut + 1,
                              2 * cut + 3, std::size_t{8192}}) {
    std::vector<std::vector<KV>> cols = {
        random_col(n, 1, 2000000, 0),            // distinct-ish, val 0
        random_col(n, -1000, 1000, 0),           // negative, duplicates
        random_col(n, -3, 3, 5),                 // equal keys, other vals
        random_col(n, kDummy, kMax, 1000),       // every key byte varies
        std::vector<KV>(n, KV{42, 7}),           // all equal
    };
    // kDummy padding: a random column whose tail, then every third row,
    // is a dummy (key kDummy, value 0).
    auto tail = random_col(n, -50, 50, 3);
    for (std::size_t i = n - n / 4; i < n; ++i) tail[i] = {kDummy, 0};
    auto mixed = random_col(n, -1000000, 1000000, 0);
    for (std::size_t i = 0; i < n; i += 3) mixed[i] = {kDummy, 0};
    cols.push_back(std::move(tail));
    cols.push_back(std::move(mixed));
    // Sorted, reversed, and a few presorted runs.
    auto sorted = random_col(n, -100000, 100000, 9);
    std::sort(sorted.begin(), sorted.end(),
              [](const KV& a, const KV& b) { return desc_before(a, b); });
    auto reversed = sorted;
    std::reverse(reversed.begin(), reversed.end());
    auto runs = random_col(n, -100000, 100000, 0);
    for (std::size_t r = 0; r < 4; ++r) {
      const auto lo = static_cast<std::ptrdiff_t>(r * n / 4);
      const auto hi = static_cast<std::ptrdiff_t>((r + 1) * n / 4);
      std::sort(runs.begin() + lo, runs.begin() + hi,
                [](const KV& a, const KV& b) { return desc_before(a, b); });
    }
    cols.push_back(std::move(sorted));
    cols.push_back(std::move(reversed));
    cols.push_back(std::move(runs));
    for (std::size_t c = 0; c < cols.size(); ++c) {
      auto col = cols[c];
      auto expect = cols[c];
      std::sort(expect.begin(), expect.end(),
                [](const KV& a, const KV& b) { return desc_before(a, b); });
      detail::sort_column_desc(col);
      EXPECT_EQ(col, expect) << "n=" << n << " column " << c;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 9u * 10u);
}

TEST(EvenSortPlanTest, FieldConsistency) {
  auto plan = EvenSortPlan::build(16, 4, 32);
  EXPECT_EQ(plan.p, 16u);
  EXPECT_EQ(plan.n, 512u);
  EXPECT_EQ(plan.kk, 4u);
  EXPECT_EQ(plan.g, 4u);
  EXPECT_EQ(plan.core->m, 128u);
  EXPECT_TRUE(plan.redistribute);  // g > 1

  // p == kk and kk | ni: no redistribution needed.
  auto direct = EvenSortPlan::build(4, 4, 48);
  EXPECT_FALSE(direct.redistribute);
}

TEST(EvenSortPlanTest, RejectsBadParameters) {
  EXPECT_THROW(EvenSortPlan::build(4, 8, 16), std::invalid_argument);  // k>p
  EXPECT_THROW(EvenSortPlan::build(8, 4, 0), std::invalid_argument);  // ni=0
  EXPECT_THROW(EvenSortPlan::build(8, 4, 16, 3),
               std::invalid_argument);  // 3 does not divide p
}

TEST(EvenSortPlanTest, CollectiveCycleCountIsDeterministic) {
  // Two runs of the collective on different data must use identical cycle
  // counts — the property the selection loop relies on for lockstep.
  const auto plan = EvenSortPlan::build(8, 2, 4);
  auto run_once = [&plan](std::uint64_t seed) {
    util::Xoshiro256StarStar rng(seed);
    Network net({.p = 8, .k = 2});
    auto prog = [](Proc& self, const EvenSortPlan& pl,
                   std::vector<KV> data) -> ProcMain {
      co_await columnsort_even_collective(self, pl, data);
    };
    for (ProcId i = 0; i < 8; ++i) {
      std::vector<KV> data(4);
      for (auto& kv : data) kv = KV{rng.uniform(-99, 99), 0};
      net.install(i, prog(net.proc(i), plan, std::move(data)));
    }
    return net.run().cycles;
  };
  EXPECT_EQ(run_once(1), run_once(999));
}

TEST(RunTransformTest, TransformsMatchPermutationTables) {
  // Drive one transform directly on a p == kk network and compare against
  // the permutation table applied in memory.
  const std::size_t m = 12, kk = 4;
  auto plan = detail::CorePlan::build(m, kk);
  util::Xoshiro256StarStar rng(5);
  std::vector<std::vector<KV>> columns(kk, std::vector<KV>(m));
  std::vector<KV> flat(m * kk);
  for (std::size_t c = 0; c < kk; ++c) {
    for (std::size_t r = 0; r < m; ++r) {
      columns[c][r] = KV{rng.uniform(-999, 999),
                         static_cast<Word>(c * m + r)};
      flat[c * m + r] = columns[c][r];
    }
  }
  for (std::size_t t = 0; t < 4; ++t) {
    Network net({.p = kk, .k = kk});
    auto work = columns;  // fresh copy per transform
    auto prog = [](Proc& self, const detail::CorePlan& pl, std::size_t tt,
                   std::vector<KV>& col) -> ProcMain {
      co_await detail::RunTransform(self, pl, tt, self.id(), col);
    };
    for (ProcId c = 0; c < kk; ++c) {
      net.install(c, prog(net.proc(c), plan, t, work[c]));
    }
    net.run();
    for (std::size_t src = 0; src < m * kk; ++src) {
      const std::size_t dst = plan.tables[t][src];
      EXPECT_EQ(work[dst / m][dst % m], flat[src])
          << "transform " << t << " src " << src;
    }
  }
}

}  // namespace
}  // namespace mcb::algo
