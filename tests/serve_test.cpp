// Tests of the serving layer (src/serve) and its collective
// (algo::select_ranks): batched multi-rank selection against host ground
// truth on every engine, the quantile rank convention, query-class
// parsing, churn invariants of the resident dataset, and the server
// report's byte-determinism contract across engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "mcb/network.hpp"
#include "obs/clock.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace mcb {
namespace {

std::vector<Word> sorted_desc(const std::vector<std::vector<Word>>& shards) {
  std::vector<Word> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end(), std::greater<Word>{});
  return all;
}

TEST(MultiSelectTest, MatchesHostGroundTruth) {
  const auto w = util::make_workload(128, 8, util::Shape::kRandom, 9);
  const auto truth = sorted_desc(w.inputs);
  // Duplicated and unsorted ranks are part of the contract.
  const std::vector<std::size_t> ds = {64, 1, 128, 2, 64, 127, 13};
  const auto res = algo::select_ranks({.p = 8, .k = 2}, w.inputs, ds);
  ASSERT_EQ(res.values.size(), ds.size());
  for (std::size_t j = 0; j < ds.size(); ++j) {
    EXPECT_EQ(res.values[j], truth[ds[j] - 1]) << "rank " << ds[j];
  }

  // Every rank 1..n, shuffled and half of them repeated: the batch splits
  // at nearly every filtering phase, so the segment stack runs deep. The
  // run still reports exactly one "terminate" phase, last.
  for (std::size_t p : {std::size_t{3}, std::size_t{37}}) {
    const std::size_t n = 200;
    const auto wp = util::make_workload(n, p, util::Shape::kRandom, p);
    const auto all = sorted_desc(wp.inputs);
    std::vector<std::size_t> every;
    for (std::size_t d = 1; d <= n; ++d) every.push_back(d);
    for (std::size_t d = 1; d <= n; d += 2) every.push_back(d);
    util::Xoshiro256StarStar rng(p);
    rng.shuffle(every);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
        const SimConfig cfg{.p = p, .k = k, .engine = e};
        const auto got = algo::select_ranks(cfg, wp.inputs, every);
        ASSERT_EQ(got.values.size(), every.size());
        for (std::size_t j = 0; j < every.size(); ++j) {
          ASSERT_EQ(got.values[j], all[every[j] - 1])
              << "p=" << p << " k=" << k << " rank " << every[j];
        }
        const auto& phases = got.stats.phases;
        ASSERT_FALSE(phases.empty());
        EXPECT_EQ(phases.back().name, "terminate") << "p=" << p << " k=" << k;
        EXPECT_EQ(std::count_if(phases.begin(), phases.end(),
                                [](const PhaseStats& ph) {
                                  return ph.name == "terminate";
                                }),
                  1)
            << "p=" << p << " k=" << k;
      }
    }
  }
}

TEST(MultiSelectTest, AgreesWithSingleRankSelection) {
  const auto w = util::make_workload(300, 6, util::Shape::kZipf, 11);
  const std::vector<std::size_t> ds = {1, 30, 150, 290, 300};
  const SimConfig cfg{.p = 6, .k = 3};
  const auto batched = algo::select_ranks(cfg, w.inputs, ds);
  Cycle single_cycles = 0;
  for (std::size_t j = 0; j < ds.size(); ++j) {
    const auto one = algo::select_rank(cfg, w.inputs, ds[j]);
    EXPECT_EQ(batched.values[j], one.value) << "rank " << ds[j];
    single_cycles += one.stats.cycles;
  }
  // The whole point of batching: one run answers the cluster for less than
  // the rank-at-a-time total.
  EXPECT_LT(batched.stats.cycles, single_cycles);
}

TEST(MultiSelectTest, IdenticalAcrossEngines) {
  const auto w = util::make_workload(256, 16, util::Shape::kEven, 4);
  const std::vector<std::size_t> ds = {1, 26, 128, 231, 256};
  auto run = [&](Engine e) {
    SimConfig cfg{.p = 16, .k = 4};
    cfg.engine = e;
    return algo::select_ranks(cfg, w.inputs, ds);
  };
  const auto ref = run(Engine::kReference);
  const auto got = run(Engine::kEventDriven);
  EXPECT_EQ(ref.values, got.values);
  EXPECT_EQ(ref.filter_phases, got.filter_phases);
  EXPECT_EQ(ref.stats.cycles, got.stats.cycles);
  EXPECT_EQ(ref.stats.messages, got.stats.messages);
}

TEST(MultiSelectTest, RejectsBadRanksAndEmptyBatch) {
  const auto w = util::make_workload(64, 8, util::Shape::kEven, 1);
  const SimConfig cfg{.p = 8, .k = 2};
  EXPECT_THROW(algo::select_ranks(cfg, w.inputs, {}), std::invalid_argument);
  EXPECT_THROW(algo::select_ranks(cfg, w.inputs, {0}),
               std::invalid_argument);
  EXPECT_THROW(algo::select_ranks(cfg, w.inputs, {65}),
               std::invalid_argument);
}

TEST(QuantileRankTest, CeilConvention) {
  // The examples/topk_query.cpp regression: truncation answered 1638.
  EXPECT_EQ(serve::quantile_rank(16384, 0.10), 1639u);
  EXPECT_EQ(serve::quantile_rank(16384, 0.50), 8192u);
  EXPECT_EQ(serve::quantile_rank(16384, 0.001), 17u);
  EXPECT_EQ(serve::quantile_rank(10, 0.25), 3u);  // ceil(2.5)
  EXPECT_EQ(serve::quantile_rank(100, 0.0), 1u);  // floored at 1
  EXPECT_EQ(serve::quantile_rank(100, 1.0), 100u);
  EXPECT_EQ(serve::quantile_rank(1, 0.5), 1u);
  EXPECT_THROW(serve::quantile_rank(0, 0.5), std::invalid_argument);
  EXPECT_THROW(serve::quantile_rank(10, 1.5), std::invalid_argument);
  EXPECT_THROW(serve::quantile_rank(10, -0.1), std::invalid_argument);
}

TEST(ParseClassesTest, ParsesWeightsAndKinds) {
  const auto cs = serve::parse_classes("rank:4,topk:2,churn:1");
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].name, "rank");
  EXPECT_EQ(cs[0].kind, serve::OpKind::kRankSelect);
  EXPECT_EQ(cs[0].weight, 4u);
  EXPECT_EQ(cs[1].kind, serve::OpKind::kTopK);
  EXPECT_EQ(cs[2].kind, serve::OpKind::kChurn);
  // Weight defaults to 1 when omitted.
  EXPECT_EQ(serve::parse_classes("rank")[0].weight, 1u);
}

TEST(ParseClassesTest, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::parse_classes(""), std::invalid_argument);
  EXPECT_THROW(serve::parse_classes("median:1"), std::invalid_argument);
  EXPECT_THROW(serve::parse_classes("rank:0"), std::invalid_argument);
  EXPECT_THROW(serve::parse_classes("rank:-2"), std::invalid_argument);
  EXPECT_THROW(serve::parse_classes("rank:x"), std::invalid_argument);
}

TEST(DatasetTest, ChurnKeepsInvariants) {
  serve::Dataset data(256, 8, 42);
  ASSERT_EQ(data.size(), 256u);
  const Word max0 = data.nth_largest(1);
  for (int i = 0; i < 200; ++i) data.churn();
  // One insert + one delete per op: size is invariant.
  EXPECT_EQ(data.size(), 256u);
  std::set<Word> seen;
  std::size_t total = 0;
  for (const auto& shard : data.shards()) {
    EXPECT_GE(shard.size(), 1u);  // selection needs one element per proc
    for (Word v : shard) {
      seen.insert(v);
      ++total;
    }
  }
  EXPECT_EQ(total, 256u);
  EXPECT_EQ(seen.size(), 256u);  // distinctness survives churn
  // Fresh inserts are drawn above everything ever resident.
  EXPECT_GT(data.nth_largest(1), max0);
}

serve::ServeConfig small_config() {
  serve::ServeConfig sc;
  sc.sim.p = 8;
  sc.sim.k = 2;
  sc.n = 256;
  sc.seed = 13;
  sc.queries = 40;
  sc.batch = 4;
  return sc;
}

TEST(ServerTest, AnswersVerifiedAgainstGroundTruth) {
  auto sc = small_config();
  sc.verify = true;  // run_server throws on any wrong answer
  const auto rep = serve::run_server(sc);
  ASSERT_EQ(rep.queries.size(), sc.queries);
  std::size_t answered = 0;
  for (const auto& q : rep.queries) {
    if (q.kind == serve::OpKind::kChurn) continue;
    ++answered;
    EXPECT_GE(q.rank, 1u);
    EXPECT_GE(q.batch_id, 1u);
    EXPECT_GT(q.latency_cycles, 0u);
  }
  EXPECT_EQ(answered + rep.churn_ops, sc.queries);
  EXPECT_GE(rep.batches, (answered + sc.batch - 1) / sc.batch);
  EXPECT_LE(rep.batches, answered);  // batching can only merge runs
  EXPECT_GT(rep.total_cycles, 0u);
}

TEST(ServerTest, ReportByteIdenticalAcrossEngines) {
  auto run_with = [&](Engine e) {
    auto sc = small_config();
    sc.sim.engine = e;
    return serve::run_server(sc);
  };
  const auto ref = run_with(Engine::kReference);
  const std::string want_json = ref.json();
  // The JSON must survive the strict parser (the finiteness-guard contract
  // of util::json_double rides on this).
  EXPECT_NO_THROW(util::json_parse(want_json));
  const auto got = run_with(Engine::kEventDriven);
  EXPECT_EQ(want_json, got.json());
  EXPECT_EQ(ref.markdown(), got.markdown());
}

TEST(ServerTest, PersistentNetworkAllocatesOneFramePerProcessorPerBatch) {
  auto sc = small_config();
  sc.classes = serve::parse_classes("rank:1");  // several batches, no churn
  const auto rep = serve::run_server(sc);
  ASSERT_GT(rep.batches, 1u);
  // Each batch installs one program per processor, and the program is
  // that processor's only frame.
  EXPECT_EQ(rep.frame_allocs, rep.batches * sc.sim.p);
}

/// Fixed-step fake clock: every now_ns() call advances by `step`.
class StepClock final : public obs::Clock {
 public:
  explicit StepClock(std::uint64_t step) : step_(step) {}
  std::uint64_t now_ns() override { return now_ += step_; }

 private:
  std::uint64_t step_;
  std::uint64_t now_ = 0;
};

TEST(ServerTest, HostTelemetryIsTheBatchRunsWallClock) {
  // Under a fixed-step clock a run's sim_wall_ns counts its clock reads, so
  // a lone selection run under the same clock gives every batch run's wall.
  StepClock solo_clock(7);
  SimConfig solo{.p = 8, .k = 2};
  solo.clock = &solo_clock;
  const auto w = util::make_workload(256, 8, util::Shape::kEven, 5);
  const auto run_wall =
      algo::select_ranks(solo, w.inputs, {1, 128}).stats.sim_wall_ns;
  ASSERT_GT(run_wall, 0u);

  StepClock clock(7);
  serve::ServeConfig sc;
  sc.sim = {.p = 8, .k = 2};
  sc.sim.clock = &clock;
  sc.n = 256;
  sc.queries = 24;
  sc.batch = 4;
  sc.seed = 5;
  const auto rep = serve::run_server(sc);
  ASSERT_EQ(rep.batch_wall_ns.size(), rep.batches);
  std::uint64_t sum = 0;
  for (std::uint64_t wall : rep.batch_wall_ns) {
    EXPECT_EQ(wall, run_wall);
    sum += wall;
  }
  const auto host = util::json_parse(rep.host_json());
  EXPECT_EQ(host.at("sim_wall_ns").as_number(), static_cast<double>(sum));
  EXPECT_EQ(host.at("batch_runs").as_number(),
            static_cast<double>(rep.batches));
  EXPECT_EQ(host.at("batch_run_wall_ns").at("max").as_number(),
            static_cast<double>(run_wall));
  // The model document carries none of it.
  EXPECT_EQ(util::json_parse(rep.json()).find("host"), nullptr);
}

TEST(ServerTest, BatchingReducesCyclesPerQuery) {
  auto batched = small_config();
  batched.classes = serve::parse_classes("rank:1");
  auto sequential = batched;
  sequential.batch = 1;
  const auto b = serve::run_server(batched);
  const auto s = serve::run_server(sequential);
  // Identical stream, identical answers, fewer simulated cycles.
  ASSERT_EQ(b.queries.size(), s.queries.size());
  for (std::size_t i = 0; i < b.queries.size(); ++i) {
    EXPECT_EQ(b.queries[i].rank, s.queries[i].rank) << i;
    EXPECT_EQ(b.queries[i].value, s.queries[i].value) << i;
  }
  EXPECT_LT(b.total_cycles, s.total_cycles);
  EXPECT_LT(b.batches, s.batches);
}

TEST(ServerTest, RejectsBadConfig) {
  auto sc = small_config();
  sc.n = 255;  // not a multiple of p
  EXPECT_THROW(serve::run_server(sc), std::invalid_argument);
  sc = small_config();
  sc.batch = 0;
  EXPECT_THROW(serve::run_server(sc), std::invalid_argument);
}

}  // namespace
}  // namespace mcb
