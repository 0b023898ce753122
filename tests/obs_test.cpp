// Tests of the run-telemetry layer (src/obs): span recording and
// reconciliation against PhaseStats, the bounded-memory channel timeline,
// the histogram and its nearest-rank rule, the Chrome trace-event exporter
// and the report sparkline. The span/phase reconciliation tests are the
// load-bearing ones: every phase mark is a span, protocol code nests its
// sub-protocol spans inside them, and exact agreement across the whole
// algorithm x engine grid pins that nesting on both engines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "check/conformance.hpp"
#include "mcb/network.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"
#include "util/workload.hpp"

namespace mcb::obs {
namespace {

using algo::SortAlgorithm;

struct Instrumented {
  RunStats stats;
  Recorder recorder;
  Timeline timeline;
  std::uint64_t cycles_checked = 0;

  Instrumented(std::size_t k, std::size_t max_buckets = 256)
      : timeline(k, max_buckets) {}
};

/// Runs one algorithm with the full telemetry stack attached: recorder via
/// SimConfig::span_sink, timeline chained behind a conformance checker (the
/// same tee-free chaining mcbsim uses).
void run_instrumented(Instrumented& out, SimConfig cfg,
                      const std::vector<std::vector<Word>>& inputs,
                      SortAlgorithm algorithm) {
  cfg.span_sink = &out.recorder;
  check::ConformanceChecker checker(cfg, &out.timeline);
  if (algorithm == SortAlgorithm::kAuto) {
    auto res = algo::select_median(cfg, inputs, {}, &checker);
    out.stats = res.stats;
  } else {
    auto res = algo::sort(cfg, inputs, {.algorithm = algorithm}, &checker);
    out.stats = res.run.stats;
  }
  const auto& rep = checker.finish(out.stats);
  ASSERT_TRUE(rep.ok()) << rep.summary();
  out.cycles_checked = rep.cycles_checked;
  out.timeline.finalize(out.stats.cycles);
}

// kAuto stands in for "selection" in the grid below (sorts name their
// algorithm explicitly, so kAuto is free to repurpose).
const SortAlgorithm kGrid[] = {
    SortAlgorithm::kAuto,          SortAlgorithm::kColumnsortEven,
    SortAlgorithm::kVirtualColumnsort, SortAlgorithm::kRecursive,
    SortAlgorithm::kUnevenColumnsort,  SortAlgorithm::kRankSort,
    SortAlgorithm::kMergeSort,     SortAlgorithm::kCentral,
};

// --- spans reconcile across the whole grid, on both engines -----------------

TEST(SpanTest, GridReconcilesOnBothEngines) {
  auto w = util::make_workload(256, 16, util::Shape::kEven, 7);
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    for (auto a : kGrid) {
      Instrumented run(4);
      run_instrumented(run, {.p = 16, .k = 4, .engine = engine}, w.inputs, a);
      EXPECT_TRUE(run.recorder.well_formed()) << to_string(a);
      EXPECT_EQ(run.recorder.dropped(), 0u) << to_string(a);
      const auto problems = run.recorder.reconcile(run.stats);
      EXPECT_TRUE(problems.empty())
          << to_string(a) << " on "
          << (engine == Engine::kEventDriven ? "event" : "reference") << ": "
          << (problems.empty() ? "" : problems.front());
    }
  }
}

TEST(SpanTest, RecordsIdenticalAcrossEngines) {
  // Spans are part of the deterministic observable behaviour, so the two
  // engines must record byte-identical streams.
  auto w = util::make_workload(128, 8, util::Shape::kEven, 11);
  for (auto a : kGrid) {
    Instrumented ev(2);
    Instrumented ref(2);
    run_instrumented(ev, {.p = 8, .k = 2, .engine = Engine::kEventDriven},
                     w.inputs, a);
    run_instrumented(ref, {.p = 8, .k = 2, .engine = Engine::kReference},
                     w.inputs, a);
    const auto& re = ev.recorder.records();
    const auto& rr = ref.recorder.records();
    ASSERT_EQ(re.size(), rr.size()) << to_string(a);
    for (std::size_t i = 0; i < re.size(); ++i) {
      EXPECT_EQ(re[i].name, rr[i].name) << to_string(a) << " record " << i;
      EXPECT_EQ(re[i].parent, rr[i].parent) << to_string(a);
      EXPECT_EQ(re[i].begin_cycle, rr[i].begin_cycle) << to_string(a);
      EXPECT_EQ(re[i].end_cycle, rr[i].end_cycle) << to_string(a);
      EXPECT_EQ(re[i].begin_messages, rr[i].begin_messages) << to_string(a);
      EXPECT_EQ(re[i].end_messages, rr[i].end_messages) << to_string(a);
    }
  }
}

TEST(SpanTest, SelectionSpansNestAndCoverPhases) {
  auto w = util::make_workload(256, 8, util::Shape::kEven, 3);
  Instrumented run(4);
  run_instrumented(run, {.p = 8, .k = 4}, w.inputs, SortAlgorithm::kAuto);
  // partial-sums spans nest inside setup/filter/terminate.
  EXPECT_GE(run.recorder.max_depth(), 1u);
  std::set<std::string> names;
  for (const auto& s : run.recorder.summarize()) names.insert(s.name);
  for (const char* expect : {"setup", "filter", "terminate", "partial-sums"}) {
    EXPECT_TRUE(names.count(expect)) << expect;
  }
  // Summaries aggregate: the filter span count equals the phase iteration
  // count, and phase-aligned names match PhaseStats exactly.
  const auto summaries = run.recorder.summarize();
  for (const auto& s : summaries) {
    const PhaseStats* ph = run.stats.phase(s.name);
    if (ph == nullptr) continue;  // internal span (e.g. partial-sums)
    EXPECT_EQ(s.cycles, ph->cycles) << s.name;
    EXPECT_EQ(s.messages, ph->messages) << s.name;
  }
}

TEST(SpanTest, RecorderDetectsMismatchedStats) {
  // Hand-built stream: a "gather" span of 4 cycles / 2 messages against a
  // PhaseStats claiming 5 cycles. reconcile must flag it.
  Recorder rec;
  rec.on_span_begin("gather", 0, 0);
  rec.on_span_end(4, 2);
  EXPECT_TRUE(rec.well_formed());
  RunStats stats;
  stats.phases.push_back(PhaseStats{"gather", 0, 5, 2});
  const auto problems = rec.reconcile(stats);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("gather"), std::string::npos);
}

TEST(SpanTest, UnbalancedStreamIsNotWellFormed) {
  Recorder rec;
  rec.on_span_begin("open", 0, 0);
  EXPECT_FALSE(rec.well_formed());
  RunStats stats;
  EXPECT_FALSE(rec.reconcile(stats).empty());
}

TEST(SpanTest, CapacityDropsAreCountedAndStreamStaysBalanced) {
  Recorder rec(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    rec.on_span_begin("s", static_cast<Cycle>(i), 0);
    rec.on_span_end(static_cast<Cycle>(i) + 1, 0);
  }
  EXPECT_EQ(rec.records().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_TRUE(rec.well_formed());
}

TEST(SpanTest, NullSinkSpansAreFree) {
  // No span_sink attached: instrumented algorithms still run and produce
  // stats identical to a recorder-attached run.
  auto w = util::make_workload(128, 8, util::Shape::kEven, 5);
  SimConfig cfg{.p = 8, .k = 2};
  auto bare = algo::sort(cfg, w.inputs, {});
  Instrumented obs(2);
  run_instrumented(obs, cfg, w.inputs, SortAlgorithm::kColumnsortEven);
  EXPECT_EQ(bare.run.stats.cycles, obs.stats.cycles);
  EXPECT_EQ(bare.run.stats.messages, obs.stats.messages);
}

// --- timeline ----------------------------------------------------------------

TEST(TimelineTest, TotalsMatchRunStats) {
  auto w = util::make_workload(256, 16, util::Shape::kEven, 9);
  for (auto a : kGrid) {
    Instrumented run(4);
    run_instrumented(run, {.p = 16, .k = 4}, w.inputs, a);
    const Timeline& tl = run.timeline;
    ASSERT_TRUE(tl.finalized());
    // Every message is a write; the engine's count and the timeline's must
    // agree exactly.
    EXPECT_EQ(tl.total_writes(), run.stats.messages) << to_string(a);
    std::uint64_t per_channel = 0;
    for (auto wch : tl.writes_per_channel()) per_channel += wch;
    EXPECT_EQ(per_channel, run.stats.messages) << to_string(a);
    // Busy/idle partition the run.
    EXPECT_EQ(tl.busy_cycles() + tl.idle_cycles(), run.stats.cycles)
        << to_string(a);
    // The conformance checker independently counts distinct busy cycles
    // from the same stream.
    EXPECT_EQ(tl.busy_cycles(), run.cycles_checked) << to_string(a);
  }
}

TEST(TimelineTest, BucketSumsEqualExactTotalsAtAnyResolution) {
  auto w = util::make_workload(256, 8, util::Shape::kEven, 13);
  for (std::size_t max_buckets : {2u, 8u, 256u}) {
    Instrumented run(2, max_buckets);
    run_instrumented(run, {.p = 8, .k = 2}, w.inputs,
                     SortAlgorithm::kColumnsortEven);
    const Timeline& tl = run.timeline;
    EXPECT_LE(tl.buckets().size(), max_buckets);
    // Width is a power of two and covers the run.
    EXPECT_EQ(tl.bucket_cycles() & (tl.bucket_cycles() - 1), 0u);
    EXPECT_GE(static_cast<Cycle>(tl.buckets().size()) * tl.bucket_cycles(),
              run.stats.cycles);
    // Merging preserves every count exactly.
    std::uint64_t writes = 0, reads = 0, silent = 0, busy = 0;
    for (const auto& b : tl.buckets()) {
      for (auto wch : b.writes) writes += wch;
      reads += b.reads;
      silent += b.silent_reads;
      busy += b.busy_cycles;
    }
    EXPECT_EQ(writes, tl.total_writes());
    EXPECT_EQ(reads, tl.total_reads());
    EXPECT_EQ(silent, tl.total_silent_reads());
    EXPECT_EQ(busy, tl.busy_cycles());
  }
}

TEST(TimelineTest, CountsMultiReads) {
  Timeline tl(2, 16);
  Network net({.p = 2, .k = 2, .multi_read = true}, &tl);
  auto writer = [](Proc& self) -> ProcMain {
    co_await self.write(1, Message::of(Word{9}));
  };
  auto reader = [](Proc& self) -> ProcMain {
    co_await self.cycle_all(std::nullopt);
  };
  net.install(0, writer(net.proc(0)));
  net.install(1, reader(net.proc(1)));
  auto stats = net.run();
  tl.finalize(stats.cycles);
  EXPECT_EQ(tl.total_multi_reads(), 1u);
  EXPECT_EQ(tl.total_writes(), 1u);
  EXPECT_EQ(tl.writes_per_channel()[1], 1u);
}

// --- histogram ---------------------------------------------------------------

TEST(MetricsTest, HistogramQuantilesAreExactNearestRank) {
  Histogram h;
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.p50(), 3.0);   // ceil(0.5*5) = 3rd smallest
  EXPECT_DOUBLE_EQ(h.p95(), 5.0);   // ceil(0.95*5) = 5th smallest
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(Histogram{}.p50(), 0.0);
}

TEST(MetricsTest, HistogramSortsOnceAcrossQuantileCalls) {
  // Serving reads p50/p95/p99 repeatedly from long-lived histograms; the
  // sorted view is cached behind a dirty flag, so a batch of quantile
  // calls costs one sort — with byte-identical answers to the re-sorting
  // implementation it replaced.
  Histogram h;
  for (int i = 1000; i > 0; --i) h.record(i);
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_EQ(h.sort_passes(), 1u);
  EXPECT_DOUBLE_EQ(p50, 500.0);
  EXPECT_DOUBLE_EQ(p95, 950.0);
  EXPECT_DOUBLE_EQ(p99, 990.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 250.0);
  EXPECT_EQ(h.sort_passes(), 1u);
  // A new observation invalidates the cache exactly once.
  h.record(0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0001), 0.5);  // rank floors at 1
  EXPECT_DOUBLE_EQ(h.p50(), 500.0);  // ceil(0.5*1001) = 501st of 1001
  EXPECT_EQ(h.sort_passes(), 2u);
}

TEST(MetricsTest, NearestRankIsCeilFlooredAtOneCappedAtN) {
  EXPECT_EQ(nearest_rank(5, 0.5), 3u);    // ceil(2.5)
  EXPECT_EQ(nearest_rank(5, 0.95), 5u);   // ceil(4.75)
  EXPECT_EQ(nearest_rank(5, 0.0), 1u);    // floored at rank 1
  EXPECT_EQ(nearest_rank(5, 1.0), 5u);
  EXPECT_EQ(nearest_rank(1000, 0.001), 1u);
  EXPECT_EQ(nearest_rank(1001, 0.5), 501u);
}

TEST(MetricsTest, NonFiniteValuesSerializeAsZeroAndRoundTrip) {
  // NaN/Inf have no JSON literal; a raw stream of them produces documents a
  // strict parser rejects. util::json_double pins them to 0, and every
  // histogram quantile a document carries is rendered through it.
  Histogram h;
  h.record(-std::numeric_limits<double>::infinity());
  h.record(3.0);
  std::ostringstream os;
  os << "{\"nan\": " << util::json_double(std::nan(""))
     << ", \"inf\": "
     << util::json_double(std::numeric_limits<double>::infinity())
     << ", \"finite\": " << util::json_double(2.5)
     << ", \"p50\": " << util::json_double(h.p50())
     << ", \"max\": " << util::json_double(h.max()) << '}';
  const auto doc = util::json_parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("nan").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("inf").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("finite").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(doc.at("p50").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("max").as_number(), 3.0);
}

TEST(MetricsTest, HostStatsJsonGuardsNonFiniteDoubles) {
  // The host member mcbsim --profile prints goes through the same guard: a
  // poisoned cycles_per_sec must not leak "nan" into the document.
  RunStats stats;
  stats.cycles = 10;
  stats.messages = 4;
  stats.messages_per_proc = {2, 2};
  stats.messages_per_channel = {4};
  stats.cycles_per_sec = std::nan("");
  const auto doc = util::json_parse(host_stats_json(stats));
  EXPECT_DOUBLE_EQ(doc.at("cycles_per_sec").as_number(), 0.0);
  ASSERT_NE(doc.find("frame_bytes"), nullptr);
}

// --- exporter ----------------------------------------------------------------

/// Parses a trace back and replays the span events, asserting B/E stack
/// discipline and collecting per-name cycle/message totals.
struct ReplayedSpans {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> totals;
  std::size_t events = 0;
};

ReplayedSpans replay_spans(const util::JsonValue& trace) {
  ReplayedSpans out;
  std::vector<std::pair<std::string, std::pair<double, double>>> stack;
  double last_ts = 0.0;
  for (const auto& ev : trace.at("traceEvents").items()) {
    const auto& ph = ev.at("ph").as_string();
    if (ev.at("pid").as_number() != 1.0 || ph == "M") continue;
    const double ts = ev.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "span events out of order";
    last_ts = ts;
    if (ph == "B") {
      stack.emplace_back(
          ev.at("name").as_string(),
          std::make_pair(
              ts, ev.at("args").at("messages_at_begin").as_number()));
    } else {
      EXPECT_EQ(ph, "E");
      EXPECT_FALSE(stack.empty()) << "E without matching B";
      if (stack.empty()) continue;
      auto [name, begin] = stack.back();
      stack.pop_back();
      auto& [cycles, messages] = out.totals[name];
      cycles += static_cast<std::uint64_t>(ts - begin.first);
      messages +=
          static_cast<std::uint64_t>(ev.at("args").at("messages").as_number());
    }
    ++out.events;
  }
  EXPECT_TRUE(stack.empty()) << "unclosed B events";
  return out;
}

TEST(ExportTest, TraceParsesAndReconcilesWithPhases) {
  auto w = util::make_workload(256, 8, util::Shape::kEven, 21);
  SimConfig cfg{.p = 8, .k = 2};
  Instrumented run(2);
  run_instrumented(run, cfg, w.inputs, SortAlgorithm::kAuto);
  const auto json =
      chrome_trace_json(run.stats, cfg, &run.recorder, &run.timeline);
  const auto trace = util::json_parse(json);  // strict: throws on any slack

  EXPECT_DOUBLE_EQ(trace.at("otherData").at("p").as_number(), 8.0);
  EXPECT_DOUBLE_EQ(trace.at("otherData").at("messages").as_number(),
                   static_cast<double>(run.stats.messages));

  // Every channel has a counter track with at least one sample.
  std::set<std::string> counter_tracks;
  for (const auto& ev : trace.at("traceEvents").items()) {
    if (ev.at("ph").as_string() == "C") {
      counter_tracks.insert(ev.at("name").as_string());
    }
  }
  EXPECT_EQ(counter_tracks.size(), cfg.k);
  EXPECT_TRUE(counter_tracks.count("C1 writes"));
  EXPECT_TRUE(counter_tracks.count("C2 writes"));

  // Replayed span totals agree with the engine's phase accounting.
  const auto replayed = replay_spans(trace);
  EXPECT_GT(replayed.events, 0u);
  for (const auto& ph : run.stats.phases) {
    auto it = replayed.totals.find(ph.name);
    ASSERT_NE(it, replayed.totals.end()) << ph.name;
    EXPECT_EQ(it->second.first, ph.cycles) << ph.name;
    EXPECT_EQ(it->second.second, ph.messages) << ph.name;
  }
}

TEST(ExportTest, NullCollectorsYieldValidEmptyTrace) {
  RunStats stats;
  stats.cycles = 10;
  stats.messages = 4;
  const auto json = chrome_trace_json(stats, {.p = 2, .k = 1}, nullptr,
                                      nullptr);
  const auto trace = util::json_parse(json);
  EXPECT_EQ(trace.at("traceEvents").size(), 0u);
  EXPECT_DOUBLE_EQ(trace.at("otherData").at("cycles").as_number(), 10.0);
}

TEST(ExportTest, DeterministicAcrossEngines) {
  auto w = util::make_workload(128, 8, util::Shape::kEven, 23);
  std::string traces[2];
  int i = 0;
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    SimConfig cfg{.p = 8, .k = 2, .engine = engine};
    Instrumented run(2);
    run_instrumented(run, cfg, w.inputs, SortAlgorithm::kColumnsortEven);
    // Normalize the engine out of the header inputs: the exporter never
    // reads cfg.engine, so pass a fixed-config copy.
    traces[i++] =
        chrome_trace_json(run.stats, {.p = 8, .k = 2}, &run.recorder,
                          &run.timeline);
  }
  EXPECT_EQ(traces[0], traces[1]);
}

// --- report helpers ----------------------------------------------------------

TEST(ReportTest, SparklineScalesToMax) {
  EXPECT_EQ(spark({}), "");
  EXPECT_EQ(spark({0.0, 0.0}), "  ");
  // 10-level ramp, floor(v / max * 9): 1/10 -> level 0, 5/10 -> level 4,
  // max -> level 9, zero -> blank.
  EXPECT_EQ(spark({0.0, 1.0, 5.0, 10.0}), " .+@");
}

TEST(ReportTest, RejectsUnrecognizedDocuments) {
  EXPECT_THROW(report_markdown(util::json_parse("{\"x\": 1}")),
               std::invalid_argument);
}

// --- host clock seam ---------------------------------------------------------

/// Deterministic clock: every now_ns() call advances by a fixed step, so a
/// "wall duration" counts clock reads instead of host time.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::uint64_t step = 1) : step_(step) {}
  std::uint64_t now_ns() override {
    now_ += step_;
    return now_;
  }

 private:
  std::uint64_t step_;
  std::uint64_t now_ = 0;
};

TEST(ClockSeamTest, ClockSeamMakesEngineWallClockDeterministic) {
  // The network reads wall time only through SimConfig::clock; a fixed-step
  // fake therefore makes sim_wall_ns a deterministic function of the run.
  auto w = util::make_workload(128, 8, util::Shape::kEven, 3);
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    std::uint64_t walls[2] = {0, 0};
    for (auto& wall : walls) {
      FakeClock clk(7);
      SimConfig cfg{.p = 8, .k = 2};
      cfg.engine = e;
      cfg.clock = &clk;
      wall = algo::select_median(cfg, w.inputs).stats.sim_wall_ns;
    }
    EXPECT_GT(walls[0], 0u);
    EXPECT_EQ(walls[0], walls[1]);
  }
}

TEST(HostReportTest, HostMarkdownRendersEveryMemberInOrder) {
  const auto host = util::json_parse(
      "{\"sim_wall_ns\":1200,\"q\":{\"p50\":2,\"max\":3.5},"
      "\"recent\":[4,5]}");
  EXPECT_EQ(host_markdown(host),
            "- sim_wall_ns: 1200\n- q: p50=2 max=3.5\n- recent: 4 5\n");
}

// --- stats guards ------------------------------------------------------------

TEST(StatsGuardTest, SafeCyclesPerSecHandlesZeroWall) {
  EXPECT_DOUBLE_EQ(safe_cycles_per_sec(100, 0), 0.0);
  EXPECT_GT(safe_cycles_per_sec(100, 1000), 0.0);
}

}  // namespace
}  // namespace mcb::obs
