// Tests of Message (the O(log beta)-bit message model) and the channel
// trace observer, plus the virtualization cost model of Section 2.
#include <gtest/gtest.h>

#include <sstream>

#include "mcb/message.hpp"
#include "mcb/network.hpp"
#include "mcb/trace.hpp"
#include "mcb/virtualize.hpp"

namespace mcb {
namespace {

// --- Message -----------------------------------------------------------------

TEST(MessageTest, SizeAndAccess) {
  auto m = Message::of(Word{10}, Word{-3});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(0), 10);
  EXPECT_EQ(m[1], -3);
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(Message{}.empty());
}

TEST(MessageTest, CapacityEnforced) {
  auto m = Message::of(Word{1}, Word{2}, Word{3}, Word{4});
  EXPECT_EQ(m.size(), Message::kMaxWords);
  EXPECT_THROW(m.push(5), std::invalid_argument);
  EXPECT_THROW((Message{1, 2, 3, 4, 5}), std::invalid_argument);
}

TEST(MessageTest, OutOfRangeAccessThrows) {
  auto m = Message::of(Word{7});
  EXPECT_THROW(m.at(1), std::invalid_argument);
}

TEST(MessageTest, ProtocolsStillRejectShortMessagesViaAt) {
  // operator[] is now unchecked (assert-only) for hot-path code, so
  // protocol-level validation of a received message MUST go through at().
  // A protocol expecting a (median, count) pair but receiving a single
  // word still fails loudly, and the error surfaces out of Network::run.
  Network net({.p = 2, .k = 1});
  auto writer = [](Proc& self) -> ProcMain {
    co_await self.write(0, Message::of(Word{5}));  // one word, not two
  };
  auto reader = [](Proc& self) -> ProcMain {
    auto got = co_await self.read(0);
    if (got) {
      [[maybe_unused]] Word median = got->at(0);
      [[maybe_unused]] Word count = got->at(1);  // out of range: throws
    }
  };
  net.install(0, writer(net.proc(0)));
  net.install(1, reader(net.proc(1)));
  EXPECT_THROW(net.run(), std::invalid_argument);
}

TEST(MessageTest, Equality) {
  EXPECT_EQ(Message::of(Word{1}, Word{2}), (Message{1, 2}));
  EXPECT_NE(Message::of(Word{1}), (Message{1, 0}));  // size matters
}

TEST(MessageTest, Streaming) {
  std::ostringstream os;
  os << Message::of(Word{4}, Word{-1});
  EXPECT_EQ(os.str(), "[4 -1]");
}

// --- ChannelTrace -------------------------------------------------------------

TEST(TraceTest, CapturesWritesReadsAndSilence) {
  ChannelTrace trace;
  Network net({.p = 2, .k = 2}, &trace);
  auto writer = [](Proc& self) -> ProcMain {
    co_await self.write(0, Message::of(Word{42}));
    co_await self.window(1);
  };
  auto reader = [](Proc& self) -> ProcMain {
    co_await self.read(0);
    co_await self.read(1);  // silence
  };
  net.install(0, writer(net.proc(0)));
  net.install(1, reader(net.proc(1)));
  net.run();

  // Cycle 0: P1 writes C1 [42]; P2 reads C1 and hears it.
  ASSERT_GE(trace.events().size(), 3u);
  const auto& w0 = trace.events()[0];
  EXPECT_EQ(w0.cycle, 0u);
  EXPECT_EQ(w0.proc, 0u);
  ASSERT_TRUE(w0.wrote.has_value());
  EXPECT_EQ(*w0.wrote, 0u);
  const auto& r0 = trace.events()[1];
  EXPECT_EQ(r0.proc, 1u);
  ASSERT_TRUE(r0.received.has_value());
  EXPECT_EQ(r0.received->at(0), 42);
  // Cycle 1: P2 reads C2, silence.
  const auto& r1 = trace.events()[2];
  EXPECT_EQ(r1.cycle, 1u);
  EXPECT_FALSE(r1.received.has_value());

  const auto text = trace.render(2);
  EXPECT_NE(text.find("P1 -> C1 [42]"), std::string::npos);
  EXPECT_NE(text.find("(silence)"), std::string::npos);
  EXPECT_FALSE(trace.truncated());
}

TEST(TraceTest, UtilizationFooterCountsWritesPerChannel) {
  // render(num_channels) reports per-channel write counts over the traced
  // span. (The seed implementation discarded its num_channels parameter and
  // emitted no utilization at all.)
  ChannelTrace trace;
  Network net({.p = 2, .k = 2}, &trace);
  auto prog = [](Proc& self) -> ProcMain {
    co_await self.write(0, Message::of(Word{1}));
    co_await self.write(1, Message::of(Word{2}));
    co_await self.write(0, Message::of(Word{3}));
  };
  auto idle = [](Proc& self) -> ProcMain {
    co_await self.window(1);  // no channel intent — invisible to the trace
  };
  net.install(0, prog(net.proc(0)));
  net.install(1, idle(net.proc(1)));
  net.run();

  const auto text = trace.render(2);
  EXPECT_NE(text.find("channel utilization over cycles 0..2 (3 cycles):"),
            std::string::npos);
  EXPECT_NE(text.find("C1: 2 writes (66%)"), std::string::npos);
  EXPECT_NE(text.find("C2: 1 writes (33%)"), std::string::npos);

  // The parameter sizes the footer: channels beyond those written appear
  // with zero utilization instead of vanishing.
  const auto wide = trace.render(4);
  EXPECT_NE(wide.find("C3: 0 writes (0%)"), std::string::npos);
  EXPECT_NE(wide.find("C4: 0 writes (0%)"), std::string::npos);
}

TEST(TraceTest, EmptyTraceOmitsUtilizationFooter) {
  ChannelTrace trace;
  EXPECT_EQ(trace.render(4).find("channel utilization"), std::string::npos);
}

TEST(TraceTest, MultiReadEventsAreRendered) {
  // A cycle_all() suspension must show up in the trace as one "<- all:"
  // line covering every channel. (The seed engine loops skipped processors
  // whose only pending operation was a multi-read, so such cycles were
  // invisible to any sink.)
  ChannelTrace trace;
  Network net({.p = 2, .k = 2, .multi_read = true}, &trace);
  auto writer = [](Proc& self) -> ProcMain {
    co_await self.write(1, Message::of(Word{9}));
  };
  auto reader = [](Proc& self) -> ProcMain {
    co_await self.cycle_all(std::nullopt);
  };
  net.install(0, writer(net.proc(0)));
  net.install(1, reader(net.proc(1)));
  net.run();

  const auto text = trace.render(2);
  EXPECT_NE(text.find("P1 -> C2 [9]"), std::string::npos);
  EXPECT_NE(text.find("P2 <- all: C1 (silence) C2 [9]"), std::string::npos);
}

TEST(TraceTest, CapacityTruncatesAndCountsDrops) {
  ChannelTrace trace(/*capacity=*/2);
  Network net({.p = 1, .k = 1}, &trace);
  auto prog = [](Proc& self) -> ProcMain {
    for (int i = 0; i < 10; ++i) {
      co_await self.write(0, Message::of(Word{i}));
    }
  };
  net.install(0, prog(net.proc(0)));
  net.run();
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_TRUE(trace.truncated());
  // 10 write events, 2 kept: the footer reports exactly how many were shed.
  EXPECT_EQ(trace.dropped(), 8u);
  EXPECT_NE(trace.render(1).find("... (+8 dropped)"), std::string::npos);
}

TEST(TraceTest, TeeFansOutToEverySink) {
  ChannelTrace a;
  ChannelTrace b;
  TeeSink tee({&a, nullptr, &b});  // nulls are skipped at add() time
  EXPECT_EQ(tee.size(), 2u);
  EXPECT_EQ(tee.as_sink(), &tee);
  Network net({.p = 1, .k = 1}, tee.as_sink());
  auto prog = [](Proc& self) -> ProcMain {
    co_await self.write(0, Message::of(Word{5}));
  };
  net.install(0, prog(net.proc(0)));
  net.run();
  ASSERT_EQ(a.events().size(), 1u);
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(a.events()[0].sent->at(0), 5);
  EXPECT_EQ(b.events()[0].sent->at(0), 5);
}

TEST(TraceTest, TeeCollapsesToCheapestEquivalent) {
  TeeSink empty;
  EXPECT_EQ(empty.as_sink(), nullptr);
  ChannelTrace only;
  TeeSink single({&only});
  EXPECT_EQ(single.as_sink(), &only);  // no per-event indirection for one sink
}

// --- RunStats accessors ------------------------------------------------------

TEST(StatsTest, PhaseLookupAndPeakAux) {
  RunStats st;
  st.cycles = 10;
  st.messages = 42;
  st.peak_aux_words = {3, 9, 1};
  st.phases.push_back(PhaseStats{"alpha", 0, 4, 20});
  st.phases.push_back(PhaseStats{"beta", 4, 6, 22});
  EXPECT_EQ(st.max_peak_aux(), 9u);
  ASSERT_NE(st.phase("alpha"), nullptr);
  EXPECT_EQ(st.phase("alpha")->messages, 20u);
  EXPECT_EQ(st.phase("gamma"), nullptr);
}

TEST(StatsTest, RepeatedPhasesAggregate) {
  // The selection loop marks "filter" every iteration; the network must
  // fold repetitions into one entry.
  Network net({.p = 1, .k = 1});
  auto prog = [](Proc& self) -> ProcMain {
    for (int round = 0; round < 3; ++round) {
      self.mark_phase("loop");
      co_await self.write(0, Message::of(Word{round}));
      co_await self.window(1);
    }
  };
  net.install(0, prog(net.proc(0)));
  auto stats = net.run();
  ASSERT_EQ(stats.phases.size(), 1u);
  EXPECT_EQ(stats.phases[0].name, "loop");
  EXPECT_EQ(stats.phases[0].cycles, 6u);
  EXPECT_EQ(stats.phases[0].messages, 3u);
}

// --- virtualization cost -------------------------------------------------------

TEST(VirtualizeTest, IdentityIsFree) {
  RunStats stats;
  stats.cycles = 100;
  stats.messages = 500;
  auto cost = virtualization_cost({.p = 8, .k = 4}, {.p = 8, .k = 4}, stats);
  EXPECT_EQ(cost.hosts, 1u);
  EXPECT_EQ(cost.channel_mux, 1u);
  EXPECT_EQ(cost.real_cycles, 100u);
  EXPECT_EQ(cost.real_messages, 500u);
  EXPECT_DOUBLE_EQ(cost.cycle_overhead(stats), 1.0);
}

TEST(VirtualizeTest, ChannelOnlyMatchesPaperBound) {
  RunStats stats;
  stats.cycles = 100;
  stats.messages = 500;
  auto cost =
      virtualization_cost({.p = 8, .k = 2}, {.p = 8, .k = 8}, stats);
  EXPECT_EQ(cost.hosts, 1u);
  EXPECT_EQ(cost.channel_mux, 4u);
  EXPECT_EQ(cost.real_cycles, 400u);   // exactly (k'/k) * cycles
  EXPECT_EQ(cost.real_messages, 500u);  // no repeats needed
}

TEST(VirtualizeTest, HostingPaysQuadraticCycles) {
  RunStats stats;
  stats.cycles = 10;
  stats.messages = 70;
  auto cost =
      virtualization_cost({.p = 4, .k = 2}, {.p = 16, .k = 4}, stats);
  EXPECT_EQ(cost.hosts, 4u);
  EXPECT_EQ(cost.channel_mux, 2u);
  EXPECT_EQ(cost.real_cycles, 10u * 4 * 4 * 2);
  EXPECT_EQ(cost.real_messages, 70u * 4);
}

TEST(VirtualizeTest, RejectsShrinkingTheWrongWay) {
  RunStats stats;
  EXPECT_THROW(
      virtualization_cost({.p = 16, .k = 4}, {.p = 8, .k = 4}, stats),
      std::invalid_argument);
  EXPECT_THROW(
      virtualization_cost({.p = 8, .k = 8}, {.p = 8, .k = 4}, stats),
      std::invalid_argument);
}

}  // namespace
}  // namespace mcb
