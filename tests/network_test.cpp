// Unit tests of the MCB network simulator: cycle semantics, broadcast
// delivery, silence detection, collision faults, windows and sleeps, stats
// accounting, task composition and error propagation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "mcb/errors.hpp"
#include "mcb/network.hpp"
#include "mcb/trace.hpp"
#include "util/check.hpp"

namespace mcb {
namespace {

// --- tiny protocols used as fixtures ---------------------------------------

ProcMain idle_program(Proc& self, Cycle steps) {
  for (Cycle t = 0; t < steps; ++t) {
    co_await self.window(1);
  }
}

ProcMain send_one(Proc& self, ChannelId ch, Word value) {
  co_await self.write(ch, Message::of(value));
}

ProcMain recv_one(Proc& self, ChannelId ch, std::vector<Word>& out) {
  auto got = co_await self.read(ch);
  if (got) out.push_back(got->at(0));
}

TEST(NetworkTest, EmptyProgramsFinishInZeroCycles) {
  Network net({.p = 4, .k = 2});
  for (ProcId i = 0; i < 4; ++i) {
    net.install(i, idle_program(net.proc(i), 0));
  }
  auto stats = net.run();
  EXPECT_EQ(stats.cycles, 0u);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(NetworkTest, IdleProgramsCountCycles) {
  Network net({.p = 3, .k = 1});
  net.install(0, idle_program(net.proc(0), 5));
  net.install(1, idle_program(net.proc(1), 2));
  net.install(2, idle_program(net.proc(2), 7));
  auto stats = net.run();
  EXPECT_EQ(stats.cycles, 7u);  // quiescence when the longest program ends
  EXPECT_EQ(stats.messages, 0u);
}

TEST(NetworkTest, BroadcastReachesAllReaders) {
  // One writer, three concurrent readers on the same channel: one message,
  // all readers observe it (concurrent read is allowed by the model).
  Network net({.p = 4, .k = 2});
  std::vector<Word> got[4];
  net.install(0, send_one(net.proc(0), 1, 42));
  for (ProcId i = 1; i < 4; ++i) {
    net.install(i, recv_one(net.proc(i), 1, got[i]));
  }
  auto stats = net.run();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.messages, 1u);
  for (ProcId i = 1; i < 4; ++i) {
    ASSERT_EQ(got[i].size(), 1u) << "P" << i + 1;
    EXPECT_EQ(got[i][0], 42);
  }
}

TEST(NetworkTest, SilenceIsObservable) {
  // Reading a channel nobody wrote yields nullopt, not a stale message.
  Network net({.p = 2, .k = 1});
  std::vector<Word> got;
  net.install(0, idle_program(net.proc(0), 1));
  net.install(1, recv_one(net.proc(1), 0, got));
  net.run();
  EXPECT_TRUE(got.empty());
}

TEST(NetworkTest, ChannelsAreMemoryless) {
  // P0 writes in cycle 0; P1 reads the same channel in cycle 1: silence.
  Network net({.p = 2, .k = 1});
  std::vector<Word> got;
  auto late_reader = [](Proc& self, std::vector<Word>& out) -> ProcMain {
    co_await self.window(1);
    auto m = co_await self.read(0);
    if (m) out.push_back(m->at(0));
  };
  net.install(0, send_one(net.proc(0), 0, 7));
  net.install(1, late_reader(net.proc(1), got));
  net.run();
  EXPECT_TRUE(got.empty());
}

TEST(NetworkTest, WriterAlsoReadsInSameCycle) {
  // A processor may write one channel and read another in the same cycle.
  Network net({.p = 2, .k = 2});
  std::vector<Word> got0, got1;
  auto xchg = [](Proc& self, ChannelId wch, ChannelId rch, Word v,
                 std::vector<Word>& out) -> ProcMain {
    auto m = co_await self.write_read(wch, Message::of(v), rch);
    if (m) out.push_back(m->at(0));
  };
  net.install(0, xchg(net.proc(0), 0, 1, 10, got0));
  net.install(1, xchg(net.proc(1), 1, 0, 20, got1));
  auto stats = net.run();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.messages, 2u);
  ASSERT_EQ(got0.size(), 1u);
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got0[0], 20);
  EXPECT_EQ(got1[0], 10);
}

TEST(NetworkTest, CollisionThrows) {
  Network net({.p = 2, .k = 1});
  net.install(0, send_one(net.proc(0), 0, 1));
  net.install(1, send_one(net.proc(1), 0, 2));
  try {
    net.run();
    FAIL() << "expected CollisionError";
  } catch (const CollisionError& e) {
    EXPECT_EQ(e.cycle(), 0u);
    EXPECT_EQ(e.channel(), 0u);
    EXPECT_EQ(e.first_writer(), 0u);
    EXPECT_EQ(e.second_writer(), 1u);
  }
}

TEST(NetworkTest, ZeroBeatWindowSleeps) {
  // window(t) must be cycle-for-cycle a sleep of t cycles: a writer sleeps
  // 5 cycles, then writes; the reader polls every cycle.
  Network net({.p = 2, .k = 1});
  auto sleeper = [](Proc& self) -> ProcMain {
    co_await self.window(5);
    co_await self.write(0, Message::of(99));
  };
  std::vector<Cycle> heard_at;
  auto poller = [](Proc& self, std::vector<Cycle>& at) -> ProcMain {
    for (int t = 0; t < 8; ++t) {
      auto m = co_await self.read(0);
      if (m) at.push_back(self.now() - 1);
    }
  };
  net.install(0, sleeper(net.proc(0)));
  net.install(1, poller(net.proc(1), heard_at));
  net.run();
  ASSERT_EQ(heard_at.size(), 1u);
  EXPECT_EQ(heard_at[0], 5u);  // cycles 0..4 slept, write lands in cycle 5
}

TEST(NetworkTest, EmptyWindowIsNoop) {
  Network net({.p = 1, .k = 1});
  auto prog = [](Proc& self) -> ProcMain {
    co_await self.window(0);  // must not consume a cycle
    co_await self.window(1);
  };
  net.install(0, prog(net.proc(0)));
  auto stats = net.run();
  EXPECT_EQ(stats.cycles, 1u);
}

// --- cycle_after: a sleep of t cycles + cycle(w, r) in one suspension -----

// Idle lengths straddling the wake wheel's slot and level boundaries.
constexpr Cycle kIdleGaps[] = {1, 63, 64, 65, 4097, 300000};

using Heard = std::vector<std::pair<Cycle, Word>>;

/// Processors 0..3 share one gap sequence and meet in every action cycle,
/// each writing its own channel and reading its neighbour's; processors
/// 4..7 walk the sequence rotated and alternate write-only and read-only
/// actions, so they land between and on the rendezvous cycles. `fused`
/// picks cycle_after(t, w, r) over window(t) then cycle(w, r).
ProcMain gap_walker(Proc& self, bool fused, Heard& heard) {
  const ProcId i = self.id();
  const std::size_t rot = i < 4 ? 0 : i - 3;
  const auto wch = static_cast<ChannelId>(i);
  const auto rch = static_cast<ChannelId>(i < 4 ? (i + 1) % 4 : (i + 1) % 8);
  constexpr std::size_t kSteps = std::size(kIdleGaps);
  for (std::size_t s = 0; s < kSteps; ++s) {
    const Cycle gap = kIdleGaps[(s + rot) % kSteps];
    std::optional<WriteOp> w;
    std::optional<ChannelId> r;
    if (i < 4 || s % 2 == 0) w = WriteOp{wch, Message::of(i * 100 + s)};
    if (i < 4 || s % 2 == 1) r = rch;
    Proc::ReadResult got;
    if (fused) {
      got = co_await self.cycle_after(gap, w, r);
    } else {
      co_await self.window(gap);
      got = co_await self.cycle(w, r);
    }
    if (got) heard.emplace_back(self.now(), got->at(0));
  }
}

struct EventLog final : TraceSink {
  std::vector<CycleEvent> events;
  void on_event(const CycleEvent& ev) override { events.push_back(ev); }
};

struct Observed {
  RunStats stats;
  std::vector<CycleEvent> events;
  std::vector<Heard> heard;
};

constexpr ProcId kWalkers = 8;

Observed run_walkers(Engine engine, bool fused) {
  Observed out;
  out.heard.resize(kWalkers);
  EventLog log;
  Network net({.p = kWalkers, .k = kWalkers, .engine = engine}, &log);
  for (ProcId i = 0; i < kWalkers; ++i) {
    net.install(i, gap_walker(net.proc(i), fused, out.heard[i]));
  }
  out.stats = net.run();
  out.events = std::move(log.events);
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

void expect_same_observation(const Observed& a, const Observed& b,
                             const std::string& label) {
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << label;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << label;
  EXPECT_EQ(a.stats.messages_per_proc, b.stats.messages_per_proc) << label;
  EXPECT_EQ(a.stats.messages_per_channel, b.stats.messages_per_channel)
      << label;
  EXPECT_EQ(a.stats.peak_aux_words, b.stats.peak_aux_words) << label;
  EXPECT_EQ(a.heard, b.heard) << label;
  expect_same_events(a.events, b.events, label);
}

TEST(NetworkTest, CycleAfterMatchesSleepThenCycle) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    const std::string label =
        e == Engine::kReference ? "reference" : "event";
    const Observed split = run_walkers(e, false);
    const Observed fused = run_walkers(e, true);
    expect_same_observation(split, fused, label);
    // Exactly one resume saved per fused action.
    EXPECT_EQ(split.stats.proc_resumes - fused.stats.proc_resumes,
              kWalkers * std::size(kIdleGaps))
        << label;
    EXPECT_GT(fused.stats.messages, 0u) << label;
  }
  const Observed ev = run_walkers(Engine::kEventDriven, true);
  const Observed ref = run_walkers(Engine::kReference, true);
  expect_same_observation(ev, ref, "event vs reference");
  EXPECT_EQ(ev.stats.proc_resumes, ref.stats.proc_resumes);
}

/// Writes channel 0 in cycle `at`, fused or as a sleep + write.
ProcMain late_writer(Proc& self, Cycle at, bool fused) {
  const Message m = Message::of(self.id());
  if (fused) {
    co_await self.cycle_after(at, WriteOp{0, m}, std::nullopt);
  } else {
    co_await self.window(at);
    co_await self.write(0, m);
  }
}

TEST(NetworkTest, CollisionInsideDeferredOpThrowsTheSameError) {
  // P1 and P2 both write channel 0 in cycle 70 (past the wheel's first
  // level); P0, listening there, is a fused reader.
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    for (int mix = 0; mix < 4; ++mix) {
      Network net({.p = 3, .k = 1, .engine = e});
      auto reader = [](Proc& self) -> ProcMain {
        co_await self.cycle_after(70, std::nullopt, ChannelId{0});
      };
      net.install(0, reader(net.proc(0)));
      net.install(1, late_writer(net.proc(1), 70, (mix & 1) != 0));
      net.install(2, late_writer(net.proc(2), 70, (mix & 2) != 0));
      try {
        net.run();
        FAIL() << "expected CollisionError, mix " << mix;
      } catch (const CollisionError& err) {
        EXPECT_EQ(err.cycle(), 70u) << "mix " << mix;
        EXPECT_EQ(err.channel(), 0u) << "mix " << mix;
        EXPECT_EQ(err.first_writer(), 1u) << "mix " << mix;
        EXPECT_EQ(err.second_writer(), 2u) << "mix " << mix;
      }
    }
  }
}

TEST(NetworkTest, ResetAfterAbortWithDeferredOpsRerunsIdentically) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    const std::string label =
        e == Engine::kReference ? "reference" : "event";
    EventLog log;
    Network net({.p = kWalkers, .k = kWalkers, .engine = e}, &log);
    // P0 and P1 collide on channel 0 in cycle 70 while the walkers hold
    // fused ops whose idle part has not elapsed.
    std::vector<Heard> scratch(kWalkers);
    for (ProcId i = 0; i < kWalkers; ++i) {
      net.install(i, i < 2 ? late_writer(net.proc(i), 70, true)
                           : gap_walker(net.proc(i), true, scratch[i]));
    }
    EXPECT_THROW(net.run(), CollisionError) << label;
    net.reset();
    log.events.clear();
    // The rerun starts with plain sleeps and cycles, which a stale window
    // cursor would shift.
    Observed again;
    again.heard.resize(kWalkers);
    for (ProcId i = 0; i < kWalkers; ++i) {
      net.install(i, gap_walker(net.proc(i), false, again.heard[i]));
    }
    again.stats = net.run();
    again.events = std::move(log.events);
    const Observed fresh = run_walkers(e, false);
    expect_same_observation(fresh, again, label);
    EXPECT_EQ(fresh.stats.proc_resumes, again.stats.proc_resumes) << label;
  }
}

// --- window: leading idle, beats, trailing idle in one suspension ----------

// Leading and trailing idles, straddling the wake wheel's boundaries.
constexpr Cycle kWindowIdles[] = {0, 1, 63, 64, 65, 4097};
constexpr std::size_t kWindowSteps = std::size(kWindowIdles);
// Beats per window: none (a sleep), one (the cycle_after shape), a few and
// long ones.
constexpr std::size_t kWindowBeats[] = {0, 1, 2, 5, 17, 40};

/// Beats of processor i's step s. Processors 0..3 move in lockstep, each
/// writing its own channel and reading its neighbour's in every beat;
/// processors 4..7 walk rotated and mix write-only, read-only and idle
/// beats, so they land between and on the lockstep cycles.
std::vector<Beat> walker_beats(ProcId i, std::size_t s) {
  const bool lockstep = i < 4;
  std::vector<Beat> beats(
      kWindowBeats[(s + (lockstep ? 0 : i)) % std::size(kWindowBeats)]);
  for (std::size_t j = 0; j < beats.size(); ++j) {
    Beat& b = beats[j];
    const std::size_t phase = s + j;
    if (!lockstep && phase % 3 == 2) continue;  // an idle beat
    if (lockstep || phase % 2 == 0) {
      b.msg = Message::of(i * 1000 + s * 100 + j);
      b.write = i;
    }
    if (lockstep || phase % 2 == 1) {
      b.read = lockstep ? (i + 1) % 4 : (i + 1) % kWalkers;
    }
  }
  return beats;
}

Cycle walker_lead(ProcId i, std::size_t s) {
  return kWindowIdles[(s + (i < 4 ? 0 : i - 3)) % kWindowSteps];
}

Cycle walker_trail(ProcId i, std::size_t s) {
  return kWindowIdles[(s + (i < 4 ? 3 : i)) % kWindowSteps];
}

/// Resumes the spelled-out form of every step pays over its one window:
/// a cycle_after per beat (the first carrying the lead), or a sleep for
/// the lead of a window with no beats, then a sleep for the trail.
std::uint64_t walker_saved_resumes() {
  std::uint64_t saved = 0;
  for (ProcId i = 0; i < kWalkers; ++i) {
    for (std::size_t s = 0; s < kWindowSteps; ++s) {
      const std::size_t beats = walker_beats(i, s).size();
      const Cycle lead = walker_lead(i, s);
      const Cycle trail = walker_trail(i, s);
      const std::uint64_t split =
          beats + (beats == 0 && lead > 0 ? 1 : 0) + (trail > 0 ? 1 : 0);
      saved += split - (lead + beats + trail > 0 ? 1 : 0);
    }
  }
  return saved;
}

/// Walks processor i's steps as one window each, or spelled out as a
/// cycle_after per beat followed by a sleep. Reads are logged with the
/// cycle they completed in.
ProcMain window_walker(Proc& self, bool window, Heard& heard) {
  const ProcId i = self.id();
  for (std::size_t s = 0; s < kWindowSteps; ++s) {
    const Cycle lead = walker_lead(i, s);
    const Cycle trail = walker_trail(i, s);
    const std::vector<Beat> beats = walker_beats(i, s);
    std::vector<Proc::ReadResult> got(beats.size());
    const Cycle start = self.now();
    if (window) {
      auto aw = self.window(
          lead, beats.size(), trail,
          [&beats](std::size_t j) { return beats[j]; },
          [&got](std::size_t j, Proc::ReadResult r) { got[j] = std::move(r); });
      co_await aw;
    } else {
      Cycle idle = lead;
      for (std::size_t j = 0; j < beats.size(); ++j) {
        const Beat& b = beats[j];
        std::optional<WriteOp> w;
        std::optional<ChannelId> r;
        if (b.write != kNoChannel) w = WriteOp{b.write, b.msg};
        if (b.read != kNoChannel) r = b.read;
        got[j] = co_await self.cycle_after(std::exchange(idle, 0), w, r);
      }
      co_await self.window(idle);
      co_await self.window(trail);
    }
    EXPECT_EQ(self.now(), start + lead + beats.size() + trail);
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (got[j]) heard.emplace_back(start + lead + j + 1, got[j]->at(0));
    }
  }
}

Observed run_window_walkers(Engine engine, bool window) {
  Observed out;
  out.heard.resize(kWalkers);
  EventLog log;
  Network net({.p = kWalkers, .k = kWalkers, .engine = engine}, &log);
  for (ProcId i = 0; i < kWalkers; ++i) {
    net.install(i, window_walker(net.proc(i), window, out.heard[i]));
  }
  out.stats = net.run();
  out.events = std::move(log.events);
  return out;
}

TEST(NetworkTest, WindowMatchesCycleAfterPerBeatThenSleep) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    const std::string label =
        e == Engine::kReference ? "reference" : "event";
    const Observed split = run_window_walkers(e, false);
    const Observed window = run_window_walkers(e, true);
    expect_same_observation(split, window, label);
    // Exactly one resume per window.
    EXPECT_EQ(split.stats.proc_resumes - window.stats.proc_resumes,
              walker_saved_resumes())
        << label;
    EXPECT_GT(window.stats.messages, 0u) << label;
    std::size_t heard = 0;
    for (const Heard& h : window.heard) heard += h.size();
    EXPECT_GT(heard, 0u) << label;
  }
  const Observed ev = run_window_walkers(Engine::kEventDriven, true);
  const Observed ref = run_window_walkers(Engine::kReference, true);
  expect_same_observation(ev, ref, "event vs reference");
  EXPECT_EQ(ev.stats.proc_resumes, ref.stats.proc_resumes);
}

/// Writes channel 0 in cycle `at` as beat 3 of a window starting at cycle
/// at - 3 (reading channel 0 in the other beats), or with a cycle_after.
ProcMain window_writer(Proc& self, Cycle at, bool window) {
  const Message m = Message::of(self.id());
  if (window) {
    auto aw = self.window(at - 3, 5, 2, [m](std::size_t j) {
      return j == 3 ? Beat{m, 0} : Beat{{}, kNoChannel, 0};
    });
    co_await aw;
  } else {
    co_await self.cycle_after(at, WriteOp{0, m}, std::nullopt);
  }
}

TEST(NetworkTest, CollisionInsideWindowThrowsTheSameError) {
  // P1 and P2 both write channel 0 in cycle 70 (past the wheel's first
  // level), from inside windows or not; P0 listens there in a window.
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    for (int mix = 0; mix < 4; ++mix) {
      Network net({.p = 3, .k = 1, .engine = e});
      auto reader = [](Proc& self) -> ProcMain {
        auto aw = self.window(
            68, 4, 1, [](std::size_t) { return Beat{{}, kNoChannel, 0}; },
            [](std::size_t, const Proc::ReadResult&) {});
        co_await aw;
      };
      net.install(0, reader(net.proc(0)));
      net.install(1, window_writer(net.proc(1), 70, (mix & 1) != 0));
      net.install(2, window_writer(net.proc(2), 70, (mix & 2) != 0));
      try {
        net.run();
        FAIL() << "expected CollisionError, mix " << mix;
      } catch (const CollisionError& err) {
        EXPECT_EQ(err.cycle(), 70u) << "mix " << mix;
        EXPECT_EQ(err.channel(), 0u) << "mix " << mix;
        EXPECT_EQ(err.first_writer(), 1u) << "mix " << mix;
        EXPECT_EQ(err.second_writer(), 2u) << "mix " << mix;
      }
    }
  }
}

/// The exception a run throws, as (type, message).
std::pair<std::string, std::string> run_error(Network& net) {
  try {
    net.run();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {"none", ""};
}

TEST(NetworkTest, ThrowingFillOrPlaceSurfacesTheSameOnBothEngines) {
  // Processor 1 throws from fill or place at beat `at` of a window behind
  // a 64-cycle lead (beat 0 fills in the call, later beats in the engine,
  // those of a window longer than 32 beats a block at a time, and a
  // one-beat window without trail places as it resumes); processor 0
  // writes channel 0 in every cycle meanwhile.
  struct Shape {
    std::size_t beats, at;
    Cycle trail;
  };
  for (bool in_place : {false, true}) {
    for (const Shape sh : {Shape{7, 0, 5}, Shape{7, 1, 5}, Shape{7, 6, 5},
                           Shape{70, 40, 5}, Shape{1, 0, 0}}) {
      const std::size_t at = sh.at;
      std::vector<std::pair<std::string, std::string>> errors;
      for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
        Network net({.p = 2, .k = 1, .engine = e});
        auto talker = [](Proc& self) -> ProcMain {
          auto aw = self.window(0, 150, 0, [](std::size_t j) {
            return Beat{Message::of(static_cast<Word>(j)), 0};
          });
          co_await aw;
        };
        auto thrower = [](Proc& self, bool place, Shape shape) -> ProcMain {
          const std::size_t bad = shape.at;
          auto aw = self.window(
              64, shape.beats, shape.trail,
              [place, bad](std::size_t j) {
                if (!place && j == bad) {
                  throw std::domain_error("fill " + std::to_string(j));
                }
                return Beat{{}, kNoChannel, 0};
              },
              [place, bad](std::size_t j, const Proc::ReadResult& got) {
                if (place && j == bad) {
                  throw std::out_of_range("place " + std::to_string(j) +
                                          " read " +
                                          std::to_string(got->at(0)));
                }
              });
          co_await aw;
        };
        net.install(0, talker(net.proc(0)));
        net.install(1, thrower(net.proc(1), in_place, sh));
        errors.push_back(run_error(net));
      }
      const std::string label = std::string(in_place ? "place " : "fill ") +
                                std::to_string(at) + " of " +
                                std::to_string(sh.beats);
      EXPECT_EQ(errors[0], errors[1]) << label;
      EXPECT_EQ(errors[0].second,
                in_place ? "place " + std::to_string(at) + " read " +
                               std::to_string(64 + at)
                         : "fill " + std::to_string(at))
          << label;
    }
  }
}

TEST(NetworkTest, ResetAfterAbortMidWindowRerunsIdentically) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    const std::string label =
        e == Engine::kReference ? "reference" : "event";
    EventLog log;
    Network net({.p = kWalkers, .k = kWalkers, .engine = e}, &log);
    // P0 and P1 collide on channel 0 in cycle 70 while the walkers are
    // inside windows, in their leads or in their trails.
    std::vector<Heard> scratch(kWalkers);
    for (ProcId i = 0; i < kWalkers; ++i) {
      net.install(i, i < 2 ? window_writer(net.proc(i), 70, true)
                           : window_walker(net.proc(i), true, scratch[i]));
    }
    EXPECT_THROW(net.run(), CollisionError) << label;
    net.reset();
    log.events.clear();
    // The rerun starts with plain cycle_afters and sleeps, which a stale
    // window cursor would hijack.
    Observed again;
    again.heard.resize(kWalkers);
    for (ProcId i = 0; i < kWalkers; ++i) {
      net.install(i, window_walker(net.proc(i), false, again.heard[i]));
    }
    again.stats = net.run();
    again.events = std::move(log.events);
    const Observed fresh = run_window_walkers(e, false);
    expect_same_observation(fresh, again, label);
    EXPECT_EQ(fresh.stats.proc_resumes, again.stats.proc_resumes) << label;
  }
}

TEST(NetworkTest, WriteOnlyWindowNeedsNoPlace) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 2, .k = 2, .engine = e});
    std::vector<Word> heard;
    auto writer = [](Proc& self) -> ProcMain {
      auto aw = self.window(2, 3, 0, [](std::size_t j) {
        return Beat{Message::of(static_cast<Word>(10 + j)), 1};
      });
      co_await aw;
    };
    auto reader = [](Proc& self, std::vector<Word>& out) -> ProcMain {
      for (int t = 0; t < 5; ++t) {
        auto got = co_await self.read(1);
        out.push_back(got ? got->at(0) : -1);
      }
    };
    net.install(0, writer(net.proc(0)));
    net.install(1, reader(net.proc(1), heard));
    const RunStats stats = net.run();
    EXPECT_EQ(heard, (std::vector<Word>{-1, -1, 10, 11, 12}));
    EXPECT_EQ(stats.messages, 3u);
    EXPECT_EQ(stats.cycles, 5u);
  }
}

TEST(NetworkTest, CycleAfterTrailKeepsTheRead) {
  // A cycle_after with a trailing idle returns its read after the trail,
  // on both engines, even while other processors act around it.
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 2, .k = 1, .engine = e});
    std::optional<Word> got_value;
    Cycle resumed_at = 0;
    auto writer = [](Proc& self) -> ProcMain {
      auto aw = self.window(0, 70, 0, [](std::size_t j) {
        return Beat{Message::of(static_cast<Word>(j)), 0};
      });
      co_await aw;
    };
    auto reader = [](Proc& self, std::optional<Word>& out,
                     Cycle& at) -> ProcMain {
      auto aw = self.cycle_after(3, std::nullopt, ChannelId{0}, 65);
      const Proc::ReadResult got = co_await aw;
      if (got) out = got->at(0);
      at = self.now();
    };
    net.install(0, writer(net.proc(0)));
    net.install(1, reader(net.proc(1), got_value, resumed_at));
    net.run();
    EXPECT_EQ(got_value, std::optional<Word>(3));
    EXPECT_EQ(resumed_at, 69u);
  }
}

std::string invalid_argument_message(const std::function<void()>& f);

/// Runs a window whose beat `bad` writes channel `wch` and reads `rch`.
std::string window_error(Engine e, std::size_t bad, ChannelId wch,
                         ChannelId rch) {
  Network net({.p = 2, .k = 2, .engine = e});
  auto prog = [](Proc& self, std::size_t at, ChannelId w,
                 ChannelId r) -> ProcMain {
    auto aw = self.window(
        1, 4, 0,
        [=](std::size_t j) {
          return j == at ? Beat{Message::of(1), w, r} : Beat{};
        },
        [](std::size_t, const Proc::ReadResult&) {});
    co_await aw;
  };
  net.install(0, prog(net.proc(0), bad, wch, rch));
  net.install(1, idle_program(net.proc(1), 1));
  return invalid_argument_message([&] { net.run(); });
}

TEST(NetworkTest, WindowValidatesEachBeatAsItLoads) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    for (std::size_t bad : {0u, 2u}) {
      EXPECT_NE(window_error(e, bad, 2, kNoChannel).find("writing channel 2"),
                std::string::npos);
      EXPECT_NE(window_error(e, bad, kNoChannel, 5).find("reading channel 5"),
                std::string::npos);
      EXPECT_EQ(window_error(e, bad, 1, 0), "no std::invalid_argument thrown");
    }
  }
}

TEST(NetworkTest, PerProcAndPerChannelMessageCounts) {
  Network net({.p = 3, .k = 2});
  auto prog = [](Proc& self, ChannelId ch, int count) -> ProcMain {
    for (int i = 0; i < count; ++i) {
      co_await self.write(ch, Message::of(i));
    }
  };
  // Stagger: P0 writes C0 twice; P1 writes C1 three times; P2 silent.
  net.install(0, prog(net.proc(0), 0, 2));
  net.install(1, prog(net.proc(1), 1, 3));
  net.install(2, prog(net.proc(2), 0, 0));
  auto stats = net.run();
  EXPECT_EQ(stats.messages, 5u);
  EXPECT_EQ(stats.messages_per_proc[0], 2u);
  EXPECT_EQ(stats.messages_per_proc[1], 3u);
  EXPECT_EQ(stats.messages_per_proc[2], 0u);
  EXPECT_EQ(stats.messages_per_channel[0], 2u);
  EXPECT_EQ(stats.messages_per_channel[1], 3u);
}

// --- step awaiters -----------------------------------------------------------

/// Sleeps `actions` one-cycle actions, one per step; throws from begin()
/// when `throw_at` is 0, or from the step that ends action `throw_at`.
class Sleeps : public Proc::StepAwaiter<Sleeps> {
 public:
  Sleeps(Proc& self, int actions, int throw_at)
      : StepAwaiter(self), actions_(actions), throw_at_(throw_at) {}

  bool begin(Proc& self) {
    if (throw_at_ == 0) throw std::runtime_error("begin boom");
    return next(self);
  }
  bool step(Proc& self) {
    if (++ended_ == throw_at_) throw std::runtime_error("step boom");
    return next(self);
  }
  int await_resume() const { return ended_; }

 private:
  bool next(Proc& self) {
    if (ended_ == actions_) return false;
    self.act_sleep(1);
    return true;
  }

  int actions_, throw_at_, ended_ = 0;
};

TEST(NetworkTest, StepAwaiterStepsInPlaceOfResumes) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 1, .k = 1, .engine = e});
    int ended = 0;
    auto prog = [](Proc& self, int& out) -> ProcMain {
      out = co_await Sleeps(self, 5, -1);
    };
    net.install(0, prog(net.proc(0), ended));
    const auto stats = net.run();
    EXPECT_EQ(ended, 5);
    EXPECT_EQ(stats.cycles, 5u);
    EXPECT_EQ(stats.proc_resumes, 6u);  // the first resume, then 5 steps
    EXPECT_EQ(stats.frame_allocs, 1u);
  }
}

TEST(NetworkTest, ExceptionFromStepAwaiterBeginIsCaughtInTheProgram) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 1, .k = 1, .engine = e});
    bool caught = false;
    auto prog = [](Proc& self, bool& flag) -> ProcMain {
      try {
        co_await Sleeps(self, 3, 0);
      } catch (const std::runtime_error&) {
        flag = true;
      }
      co_await self.window(2);  // the program carries on
    };
    net.install(0, prog(net.proc(0), caught));
    const auto stats = net.run();
    EXPECT_TRUE(caught);
    EXPECT_EQ(stats.cycles, 2u);
  }
}

TEST(NetworkTest, ExceptionFromStepAwaiterStepAbortsRun) {
  for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 2, .k = 1, .engine = e});
    bool caught = false;
    auto prog = [](Proc& self, bool& flag) -> ProcMain {
      try {
        co_await Sleeps(self, 3, 2);
      } catch (const std::runtime_error&) {
        flag = true;  // not reached: a step runs inside the engine
      }
    };
    net.install(0, prog(net.proc(0), caught));
    net.install(1, idle_program(net.proc(1), 10));
    EXPECT_THROW(net.run(), std::runtime_error);
    EXPECT_FALSE(caught);
  }
}

TEST(NetworkTest, ExceptionInProgramPropagates) {
  Network net({.p = 2, .k = 1});
  auto thrower = [](Proc& self) -> ProcMain {
    co_await self.window(1);
    throw std::runtime_error("boom");
  };
  net.install(0, thrower(net.proc(0)));
  net.install(1, idle_program(net.proc(1), 3));
  EXPECT_THROW(net.run(), std::runtime_error);
}

// --- configuration and protocol errors --------------------------------------

TEST(NetworkTest, ConfigValidation) {
  EXPECT_THROW(Network({.p = 0, .k = 0}), std::invalid_argument);
  EXPECT_THROW(Network({.p = 2, .k = 3}), std::invalid_argument);  // k > p
  EXPECT_NO_THROW(Network({.p = 3, .k = 3}));
}

TEST(NetworkTest, ChannelIndexOutOfRangeThrows) {
  Network net({.p = 2, .k = 2});
  auto prog = [](Proc& self) -> ProcMain {
    co_await self.write(5, Message::of(1));  // only channels 0..1 exist
  };
  net.install(0, prog(net.proc(0)));
  net.install(1, prog(net.proc(1)));
  EXPECT_THROW(net.run(), std::invalid_argument);
}

TEST(NetworkTest, RunIsSingleShot) {
  Network net({.p = 1, .k = 1});
  net.install(0, idle_program(net.proc(0), 1));
  net.run();
  EXPECT_THROW(net.run(), std::invalid_argument);
}

// Install contract: a processor counts as installed exactly when it holds a
// program, so the checks below are what the O(1) bookkeeping must keep.
std::string invalid_argument_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no std::invalid_argument thrown";
}

TEST(NetworkTest, DoubleInstallRejected) {
  Network net({.p = 4, .k = 1});
  for (ProcId i = 0; i < 4; ++i) {
    net.install(i, idle_program(net.proc(i), 1));
  }
  const std::string msg = invalid_argument_message(
      [&] { net.install(2, idle_program(net.proc(2), 1)); });
  EXPECT_NE(msg.find("P3 already has a program"), std::string::npos) << msg;
  // The rejected install left the network runnable.
  EXPECT_EQ(net.run().cycles, 1u);
}

TEST(NetworkTest, MissingProgramRejected) {
  Network net({.p = 3, .k = 1});
  net.install(0, idle_program(net.proc(0), 1));
  net.install(2, idle_program(net.proc(2), 1));
  const std::string msg = invalid_argument_message([&] { net.run(); });
  EXPECT_NE(msg.find("every processor needs a program before run()"),
            std::string::npos)
      << msg;
  // Installing the missing one completes the contract.
  net.install(1, idle_program(net.proc(1), 2));
  EXPECT_EQ(net.run().cycles, 2u);
}

TEST(NetworkTest, ResetClearsInstallsAndRerunIsIdentical) {
  constexpr ProcId kP = 6;
  Network net({.p = kP, .k = 2});
  auto prog = [](Proc& self) -> ProcMain {
    co_await self.window(3 * self.id() + 1);
    co_await self.write(self.id() % 2, Message::of(self.id()));
    co_await self.read((self.id() + 1) % 2);
  };
  auto install_all = [&] {
    for (ProcId i = 0; i < kP; ++i) net.install(i, prog(net.proc(i)));
  };
  install_all();
  const RunStats first = net.run();
  net.reset();
  // Every processor is installable again, each exactly once.
  install_all();
  EXPECT_THROW(net.install(0, prog(net.proc(0))), std::invalid_argument);
  const RunStats second = net.run();
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.messages, first.messages);
  EXPECT_EQ(second.messages_per_proc, first.messages_per_proc);
  EXPECT_EQ(second.messages_per_channel, first.messages_per_channel);
  EXPECT_EQ(second.proc_resumes, first.proc_resumes);
  // A reset network with nothing installed refuses to run.
  net.reset();
  EXPECT_THROW(net.run(), std::invalid_argument);
}

TEST(NetworkTest, MaxCyclesGuard) {
  Network net({.p = 1, .k = 1, .max_cycles = 10});
  net.install(0, idle_program(net.proc(0), 100));
  EXPECT_THROW(net.run(), ProtocolError);
}

TEST(NetworkTest, PhaseAccounting) {
  Network net({.p = 2, .k = 1});
  auto prog = [](Proc& self) -> ProcMain {
    self.mark_phase("alpha");
    co_await self.write(0, Message::of(1));
    co_await self.write(0, Message::of(2));
    self.mark_phase("beta");
    co_await self.window(1);
    co_await self.write(0, Message::of(3));
  };
  net.install(0, prog(net.proc(0)));
  net.install(1, idle_program(net.proc(1), 4));
  auto stats = net.run();
  const auto* alpha = stats.phase("alpha");
  const auto* beta = stats.phase("beta");
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(alpha->cycles, 2u);
  EXPECT_EQ(alpha->messages, 2u);
  EXPECT_EQ(beta->messages, 1u);
}

TEST(NetworkTest, AuxStorageTracking) {
  Network net({.p = 2, .k = 1});
  auto prog = [](Proc& self, std::size_t hi) -> ProcMain {
    self.note_aux(3);
    co_await self.window(1);
    self.note_aux(hi);
    co_await self.window(1);
    self.note_aux(1);
  };
  net.install(0, prog(net.proc(0), 17));
  net.install(1, prog(net.proc(1), 4));
  auto stats = net.run();
  EXPECT_EQ(stats.peak_aux_words[0], 17u);
  EXPECT_EQ(stats.peak_aux_words[1], 4u);
  EXPECT_EQ(stats.max_peak_aux(), 17u);
}

TEST(NetworkTest, DeterministicReplay) {
  // Two identical runs produce identical statistics.
  auto run_once = []() {
    Network net({.p = 4, .k = 2});
    auto prog = [](Proc& self) -> ProcMain {
      const ChannelId ch = self.id() % 2;
      if (self.id() < 2) {
        for (int i = 0; i < 10; ++i) {
          co_await self.write(
              ch, Message::of(static_cast<Word>(self.id()) * 100 + i));
        }
      } else {
        for (int i = 0; i < 10; ++i) {
          co_await self.read(ch);
        }
      }
    };
    for (ProcId i = 0; i < 4; ++i) net.install(i, prog(net.proc(i)));
    return net.run();
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.messages_per_proc, b.messages_per_proc);
}

}  // namespace
}  // namespace mcb
