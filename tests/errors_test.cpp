// Error-path tests: simulator faults must carry accurate, machine-usable
// identity (cycle, channel, processor ids) and identical formatting on ALL
// engines — a debugging report that names the wrong cycle is worse than no
// report. Exercises CollisionError and ProtocolError through deliberately
// faulty protocols.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mcb/errors.hpp"
#include "mcb/network.hpp"

namespace mcb {
namespace {

ProcMain delayed_write(Proc& self, Cycle delay, ChannelId ch, Word v) {
  co_await self.window(delay);
  co_await self.write(ch, Message::of(v));
}

ProcMain idle(Proc& self, Cycle steps) {
  co_await self.window(steps);
}

/// Runs a 4-processor network where P2 and P4 both write channel 1 in cycle
/// 3, and returns the fault.
CollisionError collide(Engine engine) {
  Network net({.p = 4, .k = 2, .engine = engine});
  net.install(0, idle(net.proc(0), 5));
  net.install(1, delayed_write(net.proc(1), 3, 1, 10));
  net.install(2, idle(net.proc(2), 5));
  net.install(3, delayed_write(net.proc(3), 3, 1, 20));
  try {
    net.run();
  } catch (const CollisionError& e) {
    return e;
  }
  throw std::runtime_error("expected CollisionError");
}

TEST(ErrorsTest, CollisionCarriesExactIdentityOnBothEngines) {
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    auto e = collide(engine);
    EXPECT_EQ(e.cycle(), 3u);
    EXPECT_EQ(e.channel(), 1u);
    EXPECT_EQ(e.first_writer(), 1u);
    EXPECT_EQ(e.second_writer(), 3u);
  }
}

TEST(ErrorsTest, CollisionMessageNamesEverythingOneBased) {
  // The formatted message uses the 1-based P/C convention of the paper and
  // of every other report in the repo.
  auto e = collide(Engine::kEventDriven);
  EXPECT_STREQ(e.what(),
               "write collision on channel C2 in cycle 3 between P2 and P4");
}

TEST(ErrorsTest, CollisionIdenticalAcrossEngines) {
  auto ev = collide(Engine::kEventDriven);
  auto ref = collide(Engine::kReference);
  EXPECT_STREQ(ev.what(), ref.what());
  EXPECT_EQ(ev.cycle(), ref.cycle());
  EXPECT_EQ(ev.channel(), ref.channel());
  EXPECT_EQ(ev.first_writer(), ref.first_writer());
  EXPECT_EQ(ev.second_writer(), ref.second_writer());
}

TEST(ErrorsTest, FirstWriterIsLowestProcessorId) {
  // Installation/scan order must not leak into the report: the first writer
  // is the lowest-id processor regardless of engine scheduling.
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 3, .k = 1, .engine = engine});
    net.install(0, delayed_write(net.proc(0), 0, 0, 1));
    net.install(1, delayed_write(net.proc(1), 0, 0, 2));
    net.install(2, delayed_write(net.proc(2), 0, 0, 3));
    try {
      net.run();
      FAIL() << "expected CollisionError";
    } catch (const CollisionError& e) {
      EXPECT_EQ(e.cycle(), 0u);
      EXPECT_EQ(e.first_writer(), 0u);
      EXPECT_GT(e.second_writer(), e.first_writer());
    }
  }
}

TEST(ErrorsTest, MaxCyclesProtocolErrorOnBothEngines) {
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 2, .k = 1, .max_cycles = 16, .engine = engine});
    net.install(0, idle(net.proc(0), 1000));
    net.install(1, idle(net.proc(1), 1000));
    try {
      net.run();
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      // The message must name the limit so a user can act on it.
      EXPECT_NE(std::string(e.what()).find("max_cycles=16"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ErrorsTest, FaultsAreSimErrors) {
  // Both fault types share the SimError base, so harnesses can catch the
  // family without enumerating it.
  for (auto engine : {Engine::kEventDriven, Engine::kReference}) {
    Network net({.p = 2, .k = 1, .engine = engine});
    net.install(0, delayed_write(net.proc(0), 0, 0, 1));
    net.install(1, delayed_write(net.proc(1), 0, 0, 2));
    EXPECT_THROW(net.run(), SimError);
  }
}

// Check messages name their source file relative to the repository, so a
// failing run reads the same in every checkout of one commit.
TEST(ErrorsTest, CheckMessagesNameRepositoryRelativeSources) {
  Network net({.p = 2, .k = 1});
  try {
    net.proc(5);
    FAIL() << "processor 5 of 2 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(" at src/mcb/network.cpp:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("/src/"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mcb
