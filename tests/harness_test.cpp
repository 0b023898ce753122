// Tests of the parallel trial-sweep harness (src/harness): the determinism
// contract (results and serialized JSON independent of thread count), seed
// derivation, stable trial ordering, the nearest-rank aggregation and the
// error-capture path for infeasible grid points.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "harness/thread_pool.hpp"
#include "util/random.hpp"

namespace mcb::harness {
namespace {

Sweep small_sweep() {
  Sweep sweep;
  sweep.ps = {4, 8};
  sweep.ks = {2};
  sweep.ns = {64, 128};
  sweep.shapes = {util::Shape::kEven, util::Shape::kRandom};
  sweep.algorithms = {"auto", "select"};
  sweep.base_seed = 11;
  sweep.seeds = 3;
  return sweep;
}

// The acceptance criterion of the subsystem: the same sweep run with 1, 4
// and hardware_concurrency() threads must produce byte-identical aggregated
// JSON. Completion order differs across these runs; the serialized output
// must not.
TEST(HarnessTest, SweepJsonByteIdenticalAcrossThreadCounts) {
  const auto sweep = small_sweep();
  const auto json1 = sweep_json(run_sweep(sweep, {.threads = 1}));
  const auto json4 = sweep_json(run_sweep(sweep, {.threads = 4}));
  const auto jsonh = sweep_json(
      run_sweep(sweep, {.threads = std::thread::hardware_concurrency()}));
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(json1, jsonh);
  EXPECT_FALSE(json1.empty());
}

TEST(HarnessTest, PerTrialAccountingIdenticalAcrossThreadCounts) {
  const auto sweep = small_sweep();
  const auto a = run_sweep(sweep, {.threads = 1});
  const auto b = run_sweep(sweep, {.threads = 4});
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles) << "trial " << i;
    EXPECT_EQ(a.results[i].messages, b.results[i].messages) << "trial " << i;
    EXPECT_EQ(a.results[i].peak_aux_words, b.results[i].peak_aux_words);
    EXPECT_EQ(a.results[i].proc_resumes, b.results[i].proc_resumes);
    EXPECT_EQ(a.results[i].error, b.results[i].error);
  }
}

TEST(HarnessTest, TrialSeedMatchesContractAndSpreads) {
  // The documented derivation, verbatim.
  EXPECT_EQ(trial_seed(11, 5), util::splitmix64(11 ^ util::splitmix64(5)));
  // Distinct trials get distinct seeds (a collision over a small range
  // would silently halve the evidence a sweep collects).
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) seeds.insert(trial_seed(1, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(HarnessTest, ExpandIsStableAndOrdered) {
  const auto sweep = small_sweep();
  const auto specs = expand(sweep);
  ASSERT_EQ(specs.size(), sweep.trials());
  // Enumeration: points p-major, seeds innermost; trial_index is the
  // position, and the seed depends only on (base_seed, trial_index).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].trial_index, i);
    EXPECT_EQ(specs[i].point_index, i / sweep.seeds);
    EXPECT_EQ(specs[i].seed_index, i % sweep.seeds);
    EXPECT_EQ(specs[i].seed, trial_seed(sweep.base_seed, i));
  }
  // points() enumerates p, then k, then n, then shape, then algorithm.
  const auto pts = sweep.points();
  ASSERT_EQ(pts.size(), 16u);
  EXPECT_EQ(pts[0].p, 4u);
  EXPECT_EQ(pts[0].algorithm, "auto");
  EXPECT_EQ(pts[1].algorithm, "select");
  EXPECT_EQ(pts[2].shape, util::Shape::kRandom);
  EXPECT_EQ(pts[4].n, 128u);
  EXPECT_EQ(pts[8].p, 8u);
}

TEST(HarnessTest, ExplicitPointsOverrideTheAxes) {
  Sweep sweep;
  sweep.ps = {4, 8, 16};  // would be 3 points...
  sweep.explicit_points = {{.p = 32, .k = 4, .n = 256}};
  ASSERT_EQ(sweep.points().size(), 1u);  // ...but the list wins
  EXPECT_EQ(sweep.points()[0].p, 32u);
}

TEST(HarnessTest, SummarizeUsesNearestRankPercentiles) {
  const auto s = summarize({100.0, 2.0, 4.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);    // ceil(0.5 * 5) = rank 3 -> value 3
  EXPECT_DOUBLE_EQ(s.p95, 100.0);  // ceil(0.95 * 5) = rank 5 -> value 100
  const auto single = summarize({7.0});
  EXPECT_DOUBLE_EQ(single.p50, 7.0);
  EXPECT_DOUBLE_EQ(single.p95, 7.0);
  const auto empty = summarize({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95, 0.0);
}

TEST(HarnessTest, InfeasiblePointsAreCapturedNotFatal) {
  // k > p violates the model (SimConfig::validate); the trial must record
  // the error deterministically instead of aborting the sweep, and the
  // aggregate must exclude it from the summaries.
  Sweep sweep;
  sweep.explicit_points = {
      {.p = 2, .k = 4, .n = 16, .algorithm = "select"},  // infeasible
      {.p = 8, .k = 2, .n = 64, .algorithm = "select"},  // fine
  };
  sweep.seeds = 2;
  const auto run = run_sweep(sweep, {.threads = 2});
  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_FALSE(run.results[0].ok());
  EXPECT_FALSE(run.results[1].ok());
  EXPECT_EQ(run.results[0].error, run.results[1].error);
  EXPECT_TRUE(run.results[2].ok());
  EXPECT_TRUE(run.results[3].ok());
  ASSERT_EQ(run.aggregates.size(), 2u);
  EXPECT_EQ(run.aggregates[0].trials, 2u);
  EXPECT_EQ(run.aggregates[0].failed, 2u);
  EXPECT_EQ(run.aggregates[1].failed, 0u);
  EXPECT_GT(run.aggregates[1].cycles.mean, 0.0);
}

TEST(HarnessTest, RatiosAgainstTheoryArePopulated) {
  Sweep sweep;
  sweep.ps = {8};
  sweep.ks = {2};
  sweep.ns = {256};
  sweep.algorithms = {"columnsort", "select"};
  sweep.seeds = 2;
  const auto run = run_sweep(sweep);
  ASSERT_EQ(run.aggregates.size(), 2u);
  for (const auto& agg : run.aggregates) {
    EXPECT_EQ(agg.failed, 0u) << agg.point.algorithm;
    EXPECT_GT(agg.cycles_vs_predicted, 0.0) << agg.point.algorithm;
    EXPECT_GT(agg.messages_vs_predicted, 0.0) << agg.point.algorithm;
  }
  for (const auto& r : run.results) {
    EXPECT_GT(r.predicted_cycles, 0.0);
    EXPECT_GT(r.predicted_messages, 0.0);
    EXPECT_FALSE(r.algorithm_used.empty());
  }
}

TEST(HarnessTest, BothEnginesAgreeOnAccounting) {
  auto sweep = small_sweep();
  sweep.engine = Engine::kEventDriven;
  const auto ev = run_sweep(sweep, {.threads = 2});
  sweep.engine = Engine::kReference;
  const auto ref = run_sweep(sweep, {.threads = 2});
  ASSERT_EQ(ev.results.size(), ref.results.size());
  for (std::size_t i = 0; i < ev.results.size(); ++i) {
    EXPECT_EQ(ev.results[i].cycles, ref.results[i].cycles) << "trial " << i;
    EXPECT_EQ(ev.results[i].messages, ref.results[i].messages);
  }
}

TEST(ThreadPoolTest, ResolveThreadsClampsToWork) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);  // never more workers than items
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  EXPECT_GE(resolve_threads(0, 100), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(resolve_threads(4, 0), 1u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  std::vector<int> hits(257, 0);
  parallel_for_index(hits.size(), 4,
                     [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

}  // namespace
}  // namespace mcb::harness
