// Golden-stats regression test for the optimized engine.
//
// The scan-the-world reference loop (SimConfig::Engine::kReference, the
// seed implementation kept as the executable semantics specification) is
// the oracle; the event-driven scheduler (kEventDriven) must be
// observationally identical to it: for every algorithm in src/algo/ on a
// seeded workload grid, both engines must report exactly the same cycles,
// messages, messages_per_proc, messages_per_channel, peak_aux_words and
// per-phase stats — and, where checked, the same cycle-by-cycle trace
// events.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/collectives.hpp"
#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "harness/sweep.hpp"
#include "mcb/network.hpp"
#include "util/workload.hpp"

namespace mcb {
namespace {

SimConfig with_engine(SimConfig cfg, Engine e) {
  cfg.engine = e;
  return cfg;
}

void expect_identical_stats(const RunStats& ref, const RunStats& ev,
                            const std::string& label) {
  EXPECT_EQ(ref.cycles, ev.cycles) << label;
  EXPECT_EQ(ref.messages, ev.messages) << label;
  EXPECT_EQ(ref.messages_per_proc, ev.messages_per_proc) << label;
  EXPECT_EQ(ref.messages_per_channel, ev.messages_per_channel) << label;
  EXPECT_EQ(ref.peak_aux_words, ev.peak_aux_words) << label;
  // Host telemetry, but engine-independent: both engines resume a
  // processor exactly when its wake cycle comes up.
  EXPECT_EQ(ref.proc_resumes, ev.proc_resumes) << label;
  ASSERT_EQ(ref.phases.size(), ev.phases.size()) << label;
  for (std::size_t i = 0; i < ref.phases.size(); ++i) {
    EXPECT_EQ(ref.phases[i].name, ev.phases[i].name) << label;
    EXPECT_EQ(ref.phases[i].first_cycle, ev.phases[i].first_cycle)
        << label << " phase " << ref.phases[i].name;
    EXPECT_EQ(ref.phases[i].cycles, ev.phases[i].cycles)
        << label << " phase " << ref.phases[i].name;
    EXPECT_EQ(ref.phases[i].messages, ev.phases[i].messages)
        << label << " phase " << ref.phases[i].name;
  }
}

/// Runs `go` under both engines and asserts identical accounting, with
/// reference as the oracle.
void expect_engines_agree(const SimConfig& cfg,
                          const std::function<RunStats(const SimConfig&)>& go,
                          const std::string& label) {
  const RunStats ref = go(with_engine(cfg, Engine::kReference));
  const RunStats ev = go(with_engine(cfg, Engine::kEventDriven));
  expect_identical_stats(ref, ev, label + "/event");
}

TEST(SchedulerEquivalence, EveryExplicitSortAlgorithm) {
  const auto w = util::make_workload(256, 16, util::Shape::kEven, 2);
  for (auto a : {algo::SortAlgorithm::kColumnsortEven,
                 algo::SortAlgorithm::kVirtualColumnsort,
                 algo::SortAlgorithm::kRecursive,
                 algo::SortAlgorithm::kUnevenColumnsort,
                 algo::SortAlgorithm::kRankSort,
                 algo::SortAlgorithm::kMergeSort,
                 algo::SortAlgorithm::kCentral}) {
    expect_engines_agree(
        {.p = 16, .k = 4},
        [&](const SimConfig& cfg) {
          return algo::sort(cfg, w.inputs, {.algorithm = a}).run.stats;
        },
        std::string("sort/") + algo::to_string(a));
  }
}

TEST(SchedulerEquivalence, AutoSortAcrossShapesAndSeeds) {
  for (auto shape : {util::Shape::kEven, util::Shape::kZipf,
                     util::Shape::kRandom, util::Shape::kStaircase}) {
    for (std::uint64_t seed : {1u, 7u}) {
      const auto w = util::make_workload(192, 12, shape, seed);
      for (std::size_t k : {std::size_t{1}, std::size_t{4}}) {
        expect_engines_agree(
            {.p = 12, .k = k},
            [&](const SimConfig& cfg) {
              return algo::sort(cfg, w.inputs).run.stats;
            },
            "auto-sort/" + util::to_string(shape) + "/seed" +
                std::to_string(seed) + "/k" + std::to_string(k));
      }
    }
  }
}

TEST(SchedulerEquivalence, SelectionGrid) {
  // Selection is the skip-heaviest protocol in the library (processors wait
  // their turn by counting cycles), so it exercises the wake queue and the
  // idle-cycle fast-forward hardest.
  struct Case {
    std::size_t n, p, k;
    util::Shape shape;
    std::uint64_t seed;
  };
  for (const auto& c : std::vector<Case>{
           {1024, 16, 4, util::Shape::kEven, 3},
           {300, 6, 3, util::Shape::kRandom, 5},
           {200, 8, 2, util::Shape::kZipf, 11},
       }) {
    const auto w = util::make_workload(c.n, c.p, c.shape, c.seed);
    for (std::size_t d : {std::size_t{1}, c.n / 2, c.n}) {
      expect_engines_agree(
          {.p = c.p, .k = c.k},
          [&](const SimConfig& cfg) {
            return algo::select_rank(cfg, w.inputs, d).stats;
          },
          "select/n" + std::to_string(c.n) + "/p" + std::to_string(c.p) +
              "/k" + std::to_string(c.k) + "/d" + std::to_string(d));
    }
  }
}

TEST(SchedulerEquivalence, SelectionBySortingBaseline) {
  const auto w = util::make_workload(300, 6, util::Shape::kRandom, 5);
  expect_engines_agree(
      {.p = 6, .k = 3},
      [&](const SimConfig& cfg) {
        return algo::selection_by_sorting(cfg, w.inputs, 150).stats;
      },
      "selection_by_sorting");
}

TEST(SchedulerEquivalence, Collectives) {
  const auto w = util::make_workload(256, 16, util::Shape::kRandom, 9);
  expect_engines_agree(
      {.p = 16, .k = 4},
      [&](const SimConfig& cfg) {
        return algo::run_find_max(cfg, w.inputs).stats;
      },
      "find_max");
  expect_engines_agree(
      {.p = 16, .k = 4},
      [&](const SimConfig& cfg) {
        return algo::run_count_ge(cfg, w.inputs, 128).stats;
      },
      "count_ge");
}

TEST(SchedulerEquivalence, MultiReadExtension) {
  // central_sort_multiread drives the Section 9 cycle_all path, so the
  // event engine's handling of multi-read intents is covered too.
  const auto w = util::make_workload(64, 8, util::Shape::kEven, 4);
  expect_engines_agree(
      {.p = 8, .k = 4, .multi_read = true},
      [&](const SimConfig& cfg) {
        return algo::central_sort_multiread(cfg, w.inputs).stats;
      },
      "central_sort_multiread");
}

TEST(SchedulerEquivalence, TraceStreamsIdentical) {
  // Strongest form of "observationally identical": the cycle-by-cycle event
  // streams seen by a TraceSink must match, not just the aggregates.
  const auto w = util::make_workload(256, 16, util::Shape::kEven, 2);
  auto run_traced = [&](Engine e, ChannelTrace& trace) {
    return algo::sort(with_engine({.p = 16, .k = 4}, e), w.inputs,
                      {.algorithm = algo::SortAlgorithm::kColumnsortEven},
                      &trace)
        .run.stats;
  };
  ChannelTrace ref_trace(1u << 20);
  const RunStats ref = run_traced(Engine::kReference, ref_trace);
  ASSERT_FALSE(ref_trace.truncated());
  const auto& a = ref_trace.events();

  auto expect_same_stream = [&](Engine e, const std::string& label) {
    ChannelTrace trace(1u << 20);
    const RunStats got = run_traced(e, trace);
    expect_identical_stats(ref, got, "traced columnsort/" + label);
    ASSERT_FALSE(trace.truncated());
    const auto& b = trace.events();
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cycle, b[i].cycle) << label << " event " << i;
      EXPECT_EQ(a[i].proc, b[i].proc) << label << " event " << i;
      EXPECT_EQ(a[i].wrote, b[i].wrote) << label << " event " << i;
      EXPECT_EQ(a[i].sent, b[i].sent) << label << " event " << i;
      EXPECT_EQ(a[i].read, b[i].read) << label << " event " << i;
      EXPECT_EQ(a[i].received, b[i].received) << label << " event " << i;
    }
  };
  expect_same_stream(Engine::kEventDriven, "event");
}

TEST(SchedulerEquivalence, SweepJsonStableUnderReferenceEngine) {
  // End-to-end determinism: a sweep run on the reference engine serializes
  // byte-identically regardless of the trial pool's width, and its model
  // accounting (cycles/messages/aux) matches the event engine's trial for
  // trial.
  harness::Sweep sweep;
  sweep.ps = {8, 16};
  sweep.ks = {2, 4};
  sweep.ns = {256};
  sweep.algorithms = {"auto", "select"};
  sweep.seeds = 2;
  sweep.engine = Engine::kReference;

  const auto one = harness::run_sweep(sweep, {.threads = 1});
  const auto four = harness::run_sweep(sweep, {.threads = 4});
  EXPECT_EQ(harness::sweep_json(one), harness::sweep_json(four));

  sweep.engine = Engine::kEventDriven;
  const auto ev = harness::run_sweep(sweep, {.threads = 2});
  ASSERT_EQ(ev.results.size(), one.results.size());
  for (std::size_t i = 0; i < ev.results.size(); ++i) {
    EXPECT_EQ(ev.results[i].cycles, one.results[i].cycles) << "trial " << i;
    EXPECT_EQ(ev.results[i].messages, one.results[i].messages)
        << "trial " << i;
    EXPECT_EQ(ev.results[i].peak_aux_words, one.results[i].peak_aux_words)
        << "trial " << i;
    EXPECT_EQ(ev.results[i].error, one.results[i].error) << "trial " << i;
  }
}

TEST(SchedulerEquivalence, SkipHeavyHandRolledProtocol) {
  // Direct network-level check of the fast-forward path: staggered sleepers
  // with long gaps, a phase marker, and a final rendezvous broadcast. The
  // last sleepers' gaps straddle the wake wheel's level boundaries (64^2
  // and 64^3 cycles), so their wakes cascade through every level that a
  // run this long reaches; idle stretches cost nothing under fast-forward.
  // Odd processors fuse each sleep with the action after it
  // (Proc::cycle_after), so intents held through a lead ride the same wheel
  // levels and merge into drains with plain wakes.
  static constexpr Cycle kFarGaps[] = {4095, 4096, 4097, 5000,
                                       262143, 262144, 262145, 300000};
  constexpr ProcId kNear = 32 - std::size(kFarGaps);
  auto go = [](const SimConfig& cfg) {
    Network net(cfg);
    auto sleeper = [](Proc& self, Cycle gap) -> ProcMain {
      const bool fused = self.id() % 2 == 1;
      const auto ch = static_cast<ChannelId>(self.id() % self.k());
      if (self.id() == 0) self.mark_phase("stagger");
      if (fused) {
        co_await self.cycle_after(
            gap, WriteOp{ch, Message::of(static_cast<Word>(self.id()))},
            std::nullopt);
      } else {
        co_await self.window(gap);
        co_await self.write(ch, Message::of(static_cast<Word>(self.id())));
      }
      if (self.id() == 0) self.mark_phase("tail");
      // A read of the own channel after a staggered sleep.
      const Cycle tail = 17 * ((self.id() + 1) % 8 + 1) - 1;
      if (fused) {
        co_await self.cycle_after(tail, std::nullopt, ch);
      } else {
        co_await self.window(tail);
        co_await self.read(ch);
      }
      co_await self.window(5 * (self.id() + 1));
    };
    for (ProcId i = 0; i < cfg.p; ++i) {
      const Cycle gap = i < kNear ? 17 * (i + 1) : kFarGaps[i - kNear];
      net.install(i, sleeper(net.proc(i), gap));
    }
    return net.run();
  };
  expect_engines_agree({.p = 32, .k = 8}, go, "skip-heavy");
}

TEST(SchedulerEquivalence, WindowHeavyHandRolledProtocol) {
  // Windows (Proc::window) of 0..40 beats behind leading idles and before
  // trailing idles that straddle the wake wheel's level boundaries, mixed
  // with fused single actions that carry trails and plain sleeps. Writer w
  // owns channel w % k for its whole window; every reader's window spans
  // the windows of two writers, so beats land on busy, silent and freshly
  // written channels alike, and windows run concurrently with leads,
  // trails and sleeps in the same drains.
  static constexpr Cycle kGaps[] = {0, 1, 63, 64, 65, 4095, 4097, 262145};
  auto go = [](const SimConfig& cfg) {
    Network net(cfg);
    auto prog = [](Proc& self) -> ProcMain {
      const ProcId i = self.id();
      const std::size_t k = self.k();
      const Cycle gap = kGaps[i % std::size(kGaps)];
      const Cycle trail = kGaps[(i + 3) % std::size(kGaps)];
      if (i == 0) self.mark_phase("windows");
      const std::size_t beats = (7 * i) % 41;
      Word sum = 0;
      if (i < k) {
        // Writer: its own channel every other beat, idle beats between.
        auto aw = self.window(gap, beats, trail, [i](std::size_t j) {
          if (j % 2 != 0) return Beat{};
          return Beat{Message::of(static_cast<Word>(i * 100 + j)),
                      static_cast<ChannelId>(i)};
        });
        co_await aw;
      } else {
        auto aw = self.window(
            gap, beats, trail,
            [i, k](std::size_t j) {
              return Beat{{}, kNoChannel, static_cast<ChannelId>((i + j / 8) % k)};
            },
            [&sum](std::size_t j, const Proc::ReadResult& got) {
              sum += got ? got->at(0) * static_cast<Word>(j + 1) : 0;
            });
        co_await aw;
      }
      if (i == 0) self.mark_phase("tail");
      // A fused read with a trail, then a plain sleep.
      auto aw = self.cycle_after(static_cast<Cycle>(sum % 17), std::nullopt,
                                 static_cast<ChannelId>(i % k), i % 3);
      co_await aw;
      co_await self.window(3 * (i % 5) + 1);
    };
    for (ProcId i = 0; i < cfg.p; ++i) net.install(i, prog(net.proc(i)));
    return net.run();
  };
  expect_engines_agree({.p = 40, .k = 8}, go, "window-heavy");
}

// --- Dense fast-forward ----------------------------------------------------
//
// Processors acting every cycle from window blocks run as dense stretches
// on the event engine (docs/ENGINE.md). Each case below makes a stretch
// end somewhere else — a sleeper's wake, blocks of staggered windows, a
// collision, max_cycles, an out-of-range channel — and holds the event
// engine to the reference engine on everything observable: the stats, the
// error, what the programs saw (placed reads, and take_read after windows
// without a place) and, with a trace sink attached, every cycle event.

struct DenseCase {
  std::string name;
  bool staggered = false;  // leads and lengths differ: blocks end apart
  bool sleeper = false;    // the last processor wakes mid-block
  std::size_t max_cycles = SimConfig{}.max_cycles;
  std::size_t collide_beat = ~std::size_t{0};  // P6 also writes channel 0
  std::size_t bad_beat = ~std::size_t{0};      // P7 reads channel k
};

ProcMain dense_prog(Proc& self, const DenseCase& c, std::vector<Word>& seen) {
  const ProcId i = self.id();
  const std::size_t k = self.k();
  if (c.sleeper && i + 1 == self.p()) {
    for (const Cycle nap : {Cycle{40}, Cycle{23}, Cycle{9}, Cycle{64}}) {
      co_await self.window(nap);
      const auto got = co_await self.read(0);
      seen.push_back(got ? got->at(0) : -1);
    }
    co_return;
  }
  // Processors below k own channel i and write it on three beats of four;
  // everyone reads a channel other than its own, moving on every 16 beats.
  // Odd processors keep no reads but the last (take_read) and stop reading
  // at beat 88, so their last read applies inside a stretch.
  const auto fill = [i, k, &c](std::size_t j) {
    Beat b;
    if (i < k && (i + j) % 4 != 0) {
      b.msg = Message::of(static_cast<Word>(i * 1000 + j));
      b.write = static_cast<ChannelId>(i);
    }
    if (i == 5 && j == c.collide_beat) {
      b.msg = Message::of(Word{-5});
      b.write = 0;
    }
    if (i % 2 == 0 || j < 88) {
      b.read = static_cast<ChannelId>((i + 1 + (j / 16) % (k - 1)) % k);
    }
    if (i == 6 && j == c.bad_beat) b.read = static_cast<ChannelId>(k);
    return b;
  };
  for (std::size_t round = 0; round < 2; ++round) {
    const Cycle lead = c.staggered ? (i + round) % 7 : round;
    const std::size_t beats = (c.staggered ? 90 + 5 * i : 100) - 30 * round;
    const Cycle trail = c.staggered ? i % 3 : 0;
    if (i % 2 == 0) {
      Word sum = 0;
      auto aw = self.window(lead, beats, trail, fill,
                            [&sum](std::size_t j, const Proc::ReadResult& got) {
                              sum += got ? got->at(0) * static_cast<Word>(j + 1)
                                         : -static_cast<Word>(j);
                            });
      co_await aw;
      seen.push_back(sum);
    } else {
      auto aw = self.window(lead, beats, trail, fill);
      co_await aw;
      const auto got = self.take_read();
      seen.push_back(got ? got->at(0) : -1);
    }
  }
}

struct DenseOutcome {
  RunStats stats;
  std::string error;  // empty: the run completed
  std::vector<std::vector<Word>> seen;
  std::vector<CycleEvent> events;
};

DenseOutcome run_dense(const DenseCase& c, Engine e, bool traced) {
  SimConfig cfg{.p = 12, .k = 8, .engine = e};
  cfg.max_cycles = c.max_cycles;
  ChannelTrace trace(1u << 20);
  DenseOutcome out;
  out.seen.resize(cfg.p);
  Network net(cfg, traced ? &trace : nullptr);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, dense_prog(net.proc(i), c, out.seen[i]));
  }
  try {
    out.stats = net.run();
  } catch (const CollisionError& ex) {
    out.error = std::string("collision: ") + ex.what();
  } catch (const ProtocolError& ex) {
    out.error = std::string("protocol: ") + ex.what();
  } catch (const std::invalid_argument& ex) {
    out.error = std::string("invalid: ") + ex.what();
  }
  EXPECT_FALSE(trace.truncated());
  out.events = trace.events();
  return out;
}

void expect_same_events(const std::vector<CycleEvent>& a,
                        const std::vector<CycleEvent>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << label << " event " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << label << " event " << i;
    EXPECT_EQ(a[i].wrote, b[i].wrote) << label << " event " << i;
    EXPECT_EQ(a[i].sent, b[i].sent) << label << " event " << i;
    EXPECT_EQ(a[i].read, b[i].read) << label << " event " << i;
    EXPECT_EQ(a[i].received, b[i].received) << label << " event " << i;
  }
}

/// Runs case `c` on both engines, with and without a trace sink, and
/// returns the reference outcome after checking that all four agree.
DenseOutcome expect_dense_agree(const DenseCase& c) {
  const DenseOutcome ref = run_dense(c, Engine::kReference, true);
  for (const bool traced : {true, false}) {
    const std::string label =
        c.name + (traced ? "/traced" : "/plain");
    const DenseOutcome ev = run_dense(c, Engine::kEventDriven, traced);
    EXPECT_EQ(ref.error, ev.error) << label;
    EXPECT_EQ(ref.seen, ev.seen) << label;
    if (ref.error.empty()) expect_identical_stats(ref.stats, ev.stats, label);
    if (traced) expect_same_events(ref.events, ev.events, label);
  }
  return ref;
}

TEST(SchedulerEquivalence, DenseStretchesAlignedBlocks) {
  const DenseOutcome ref = expect_dense_agree({.name = "aligned"});
  EXPECT_TRUE(ref.error.empty()) << ref.error;
  EXPECT_GT(ref.stats.messages, 0u);
}

TEST(SchedulerEquivalence, DenseStretchEndsAtBlocksEndingApart) {
  const DenseOutcome ref =
      expect_dense_agree({.name = "staggered", .staggered = true});
  EXPECT_TRUE(ref.error.empty()) << ref.error;
}

TEST(SchedulerEquivalence, DenseStretchEndsAtSleeperWakingMidBlock) {
  // The sleeper wakes at cycles 40, 64, 74 and 139: inside blocks.
  for (const bool staggered : {false, true}) {
    const DenseOutcome ref = expect_dense_agree(
        {.name = "sleeper", .staggered = staggered, .sleeper = true});
    EXPECT_TRUE(ref.error.empty()) << ref.error;
    EXPECT_EQ(ref.seen.back().size(), 4u);
  }
}

TEST(SchedulerEquivalence, DenseStretchCollision) {
  // Beat 45 of the first window applies in cycle 45, inside the stretch
  // over the second block; P1 writes channel 0 in it too.
  const DenseOutcome ref =
      expect_dense_agree({.name = "collision", .collide_beat = 45});
  EXPECT_EQ(ref.error.rfind("collision: ", 0), 0u) << ref.error;
  EXPECT_NE(ref.error.find("45"), std::string::npos) << ref.error;
}

TEST(SchedulerEquivalence, DenseStretchReachesMaxCycles) {
  for (const std::size_t limit : {std::size_t{2}, std::size_t{50},
                                  std::size_t{64}, std::size_t{65}}) {
    const DenseOutcome ref = expect_dense_agree(
        {.name = "max_cycles=" + std::to_string(limit), .max_cycles = limit});
    EXPECT_EQ(ref.error.rfind("protocol: ", 0), 0u) << ref.error;
  }
}

TEST(SchedulerEquivalence, DenseStretchStopsAtOutOfRangeChannel) {
  // Beat 50 sits in the second block; beat 33 starts the second block and
  // 64 ends it.
  for (const std::size_t beat : {std::size_t{33}, std::size_t{50},
                                 std::size_t{64}}) {
    const DenseOutcome ref = expect_dense_agree(
        {.name = "bad-channel@" + std::to_string(beat), .bad_beat = beat});
    EXPECT_EQ(ref.error.rfind("invalid: ", 0), 0u) << ref.error;
    EXPECT_NE(ref.error.find("P7 reading channel 8 of 8"), std::string::npos)
        << ref.error;
    // Every beat before the bad one applied on both engines.
    ASSERT_FALSE(ref.events.empty());
    EXPECT_EQ(ref.events.back().cycle, beat - 1);
  }
}

// --- One filing per channel action ----------------------------------------
//
// The event engine files a channel action once, at the cycle after its
// first beat, in the wake wheel: the next bucket for no lead, level 0 for
// leads up to 4,096 cycles, the levels above for longer ones (a level-1
// block spans 4,096 cycles, a level-2 block 2^18). The cases below hold it
// to the reference engine on one-beat actions with and without a trail and
// on multi-beat windows, behind leads on both sides of every edge: the old
// 64-cycle width, each level's width relative to the filing cycle, and
// each block boundary in absolute cycles, some of them around dense
// stretches. Each compares the stats, what the programs saw and every
// cycle event, with and without a sink, and again after reset().

struct EdgeCase {
  std::string name;
  bool windows = false;  // multi-beat windows instead of one-beat actions
  bool dense = false;    // opens with dense windows, sleepers among them
};

/// Leads straddling the wheel's edges, relative to the filing cycle.
constexpr Cycle kEdgeLeads[] = {63,     64,     65,     4095,   4096,
                                4097,   262143, 262144, 262145, 300000};

/// The lead that makes an action filed at `now` wake `d` cycles after the
/// next multiple of `block` at least two cycles ahead.
Cycle lead_to_edge(Cycle now, Cycle block, int d) {
  const Cycle edge = ((now + 2) / block + 1) * block;
  return static_cast<Cycle>(static_cast<std::int64_t>(edge) + d) - now - 1;
}

ProcMain edge_prog(Proc& self, const EdgeCase& c, std::vector<Word>& seen) {
  const ProcId i = self.id();
  const std::size_t k = self.k();
  // Processors below k write their own channel; everyone reads the next
  // one. Each group of k walks the leads from its own offset, so group 0
  // acts in lockstep and hears its own writes, and the groups' filings
  // land in the same wheel slots from different cycles.
  const bool writer = i < k;
  const auto own = static_cast<ChannelId>(i % k);
  const auto next = static_cast<ChannelId>((i + 1) % k);
  const std::size_t group = i / k;
  const auto record = [&seen](const Proc::ReadResult& got) {
    seen.push_back(got ? got->at(0) : -1);
  };
  const auto beat = [i, writer, own, next](std::size_t j) {
    Beat b;
    if (writer && j % 2 == 0) {
      b.msg = Message::of(static_cast<Word>(i * 1000 + j));
      b.write = own;
    }
    if (j % 3 != 1) b.read = next;
    return b;
  };
  Word sum = 0;
  const auto place = [&sum](std::size_t j, const Proc::ReadResult& got) {
    sum += got ? got->at(0) * static_cast<Word>(j + 1) : -1;
  };
  if (c.dense) {
    // Group 0 writes for 100 cycles, group 1 reads behind a short lead,
    // and the others sleep and wake inside the stretches.
    if (group == 0) {
      auto aw = self.window(0, 100, 0, beat, place);
      co_await aw;
    } else if (group == 1) {
      auto aw = self.window(5, 60 + i, i % 3, beat, place);
      co_await aw;
    } else {
      for (const Cycle nap : {Cycle{40}, Cycle{23}, Cycle{9}}) {
        co_await self.window(nap + i);
        record(co_await self.read(next));
      }
    }
    seen.push_back(sum);
  }
  // Leads of kEdgeLeads, then leads that put the wake just before, at and
  // just after the next boundary of a 64-, 4,096- and 2^18-cycle block.
  constexpr std::size_t kRelative = std::size(kEdgeLeads);
  for (std::size_t a = 0; a < kRelative + 9; ++a) {
    const std::size_t e = a - kRelative;
    const Cycle lead =
        a < kRelative ? kEdgeLeads[(a + group) % kRelative]
                      : lead_to_edge(self.now(), Cycle{64} << (6 * (e / 3)),
                                     static_cast<int>(e % 3) - 1);
    const Cycle trail = (a + group) % 2 == 0 ? 0 : a % 3 + 1;
    if (c.windows) {
      auto aw = self.window(lead, 1 + (a * 7 + i) % 40, trail, beat, place);
      co_await aw;
      seen.push_back(sum);
    } else {
      const Beat b = beat(a);
      std::optional<WriteOp> w;
      if (b.write != kNoChannel) w = WriteOp{b.write, b.msg};
      std::optional<ChannelId> r;
      if (b.read != kNoChannel) r = b.read;
      record(co_await self.cycle_after(lead, w, r, trail));
    }
  }
}

struct EdgeOutcome {
  RunStats stats;
  std::vector<std::vector<Word>> seen;
  std::vector<CycleEvent> events;
};

/// Runs case `c` on `net` twice, with a reset() between, and returns both
/// outcomes; `trace` is the network's sink, or nullptr.
std::array<EdgeOutcome, 2> run_edges(const EdgeCase& c, Network& net,
                                     const ChannelTrace* trace) {
  std::array<EdgeOutcome, 2> out;
  for (EdgeOutcome& o : out) {
    const std::size_t before = trace != nullptr ? trace->events().size() : 0;
    o.seen.resize(net.config().p);
    for (ProcId i = 0; i < net.config().p; ++i) {
      net.install(i, edge_prog(net.proc(i), c, o.seen[i]));
    }
    o.stats = net.run();
    if (trace != nullptr) {
      EXPECT_FALSE(trace->truncated());
      o.events.assign(trace->events().begin() +
                          static_cast<std::ptrdiff_t>(before),
                      trace->events().end());
    }
    net.reset();
  }
  return out;
}

void expect_edges_agree(const EdgeCase& c) {
  const SimConfig cfg{.p = 12, .k = 4};
  ChannelTrace ref_trace(1u << 20);
  Network ref_net(with_engine(cfg, Engine::kReference), &ref_trace);
  const auto ref = run_edges(c, ref_net, &ref_trace);
  ASSERT_GT(ref[0].stats.cycles, Cycle{1} << 19) << c.name;
  ASSERT_GT(ref[0].stats.messages, 0u) << c.name;
  expect_identical_stats(ref[0].stats, ref[1].stats, c.name + "/reference");
  expect_same_events(ref[0].events, ref[1].events, c.name + "/reference");
  for (const bool traced : {true, false}) {
    ChannelTrace trace(1u << 20);
    Network net(with_engine(cfg, Engine::kEventDriven),
                traced ? &trace : nullptr);
    const auto ev = run_edges(c, net, traced ? &trace : nullptr);
    for (std::size_t r = 0; r < ev.size(); ++r) {
      const std::string label = c.name + (traced ? "/traced" : "/plain") +
                                (r == 0 ? "" : "/after-reset");
      expect_identical_stats(ref[0].stats, ev[r].stats, label);
      EXPECT_EQ(ref[0].seen, ev[r].seen) << label;
      if (traced) expect_same_events(ref[0].events, ev[r].events, label);
    }
  }
}

TEST(SchedulerEquivalence, OneBeatActionsBehindLeadsAtWheelEdges) {
  expect_edges_agree({.name = "one-beat"});
}

TEST(SchedulerEquivalence, WindowsBehindLeadsAtWheelEdges) {
  expect_edges_agree({.name = "windows", .windows = true});
}

TEST(SchedulerEquivalence, WheelEdgeLeadsAroundDenseStretches) {
  expect_edges_agree({.name = "dense/one-beat", .dense = true});
  expect_edges_agree({.name = "dense/windows", .windows = true, .dense = true});
}

}  // namespace
}  // namespace mcb
