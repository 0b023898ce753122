// Simulator fuzzing: random collision-free schedules are generated as
// per-processor scripts, executed, and verified event for event — every
// planned delivery observed, every planned silence silent, exact message
// and cycle accounting. This is the trust anchor under all algorithm-level
// measurements.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mcb/network.hpp"
#include "util/random.hpp"

namespace mcb {
namespace {

struct Step {
  std::optional<std::pair<ChannelId, Word>> write;
  std::optional<ChannelId> read;
  std::optional<Word> expect;  // nullopt = expect silence (when reading)
};

using Script = std::vector<Step>;

ProcMain scripted(Proc& self, const Script& script, std::size_t& failures) {
  for (const auto& step : script) {
    std::optional<WriteOp> w;
    if (step.write) {
      w = WriteOp{step.write->first, Message::of(step.write->second)};
    }
    auto got = co_await self.cycle(std::move(w), step.read);
    if (step.read) {
      const bool ok = step.expect
                          ? (got.has_value() && got->at(0) == *step.expect)
                          : !got.has_value();
      if (!ok) ++failures;
    }
  }
}

TEST(NetworkFuzzTest, RandomCollisionFreeSchedules) {
  util::Xoshiro256StarStar rng(0x5eed);
  for (int trial = 0; trial < 40; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 12));
    const auto k =
        static_cast<std::size_t>(rng.uniform(1, static_cast<int>(p)));
    const auto cycles = static_cast<std::size_t>(rng.uniform(1, 60));

    std::vector<Script> scripts(p, Script(cycles));
    std::uint64_t planned_messages = 0;
    for (std::size_t t = 0; t < cycles; ++t) {
      // Choose a random set of writers with distinct channels.
      std::vector<std::optional<Word>> channel_value(k);
      std::vector<std::size_t> procs(p);
      for (std::size_t i = 0; i < p; ++i) procs[i] = i;
      rng.shuffle(procs);
      const auto writers = static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(std::min(p, k))));
      for (std::size_t wi = 0; wi < writers; ++wi) {
        const auto ch = static_cast<ChannelId>(wi);  // distinct channels
        const Word value = rng.uniform(-1000, 1000);
        scripts[procs[wi]][t].write = {{ch, value}};
        channel_value[ch] = value;
        ++planned_messages;
      }
      // Everyone else (and writers too, on other channels) may read.
      for (std::size_t i = 0; i < p; ++i) {
        if (rng.uniform(0, 2) != 0) continue;  // ~1/3 read probability
        const auto ch = static_cast<ChannelId>(
            rng.uniform(0, static_cast<int>(k) - 1));
        // A writer must not read its own write channel in the same cycle
        // (the model separates the two ports).
        if (scripts[i][t].write && scripts[i][t].write->first == ch) {
          continue;
        }
        scripts[i][t].read = ch;
        scripts[i][t].expect = channel_value[ch];
      }
    }

    Network net({.p = p, .k = k});
    std::size_t failures = 0;
    for (ProcId i = 0; i < p; ++i) {
      net.install(i, scripted(net.proc(i), scripts[i], failures));
    }
    auto stats = net.run();
    EXPECT_EQ(failures, 0u) << "trial " << trial << " p=" << p << " k=" << k;
    EXPECT_EQ(stats.cycles, cycles);
    EXPECT_EQ(stats.messages, planned_messages);
  }
}

// Same step semantics as scripted(), but the whole script runs inside a
// two-deep step-awaiter chain: ScriptWalk steps one StepOnce per script
// step, in its own state, so each simulated cycle ends one inner awaiter
// and begins the next inside the engine's step call, never resuming the
// program. Random schedules through this variant are the fuzzing pressure
// on composed awaiters' lifetimes, which the ASan+UBSan CI configuration
// checks, and on their frame count: the program stays the only frame.
class StepOnce : public Proc::StepAwaiter<StepOnce> {
 public:
  StepOnce(Proc& self, const Step& step) : StepAwaiter(self), step_(&step) {}

  bool begin(Proc& self) {
    self.act_window(*this, 0, 1, 0);
    return true;
  }
  bool step(Proc&) { return false; }
  Beat fill(std::size_t) const {
    Beat b;
    if (step_->write) {
      b.msg = Message::of(step_->write->second);
      b.write = step_->write->first;
    }
    if (step_->read) b.read = *step_->read;
    return b;
  }

 private:
  const Step* step_;
};

class ScriptWalk : public Proc::StepAwaiter<ScriptWalk> {
 public:
  ScriptWalk(Proc& self, const Script& script, std::size_t& failures)
      : StepAwaiter(self), script_(&script), failures_(&failures) {}

  bool begin(Proc& self) { return open(self); }
  bool step(Proc& self) {
    if (inner_->step(self)) return true;
    const Step& done = (*script_)[at_++];
    const Proc::ReadResult got = self.take_read();
    if (done.read) {
      const bool ok = done.expect
                          ? (got.has_value() && got->at(0) == *done.expect)
                          : !got.has_value();
      if (!ok) ++*failures_;
    }
    return open(self);
  }

 private:
  bool open(Proc& self) {
    while (at_ < script_->size()) {
      if (inner_.emplace(self, (*script_)[at_]).begin(self)) return true;
      ++at_;
    }
    return false;
  }

  const Script* script_;
  std::size_t* failures_;
  std::size_t at_ = 0;
  std::optional<StepOnce> inner_;
};

ProcMain scripted_steps(Proc& self, const Script& script,
                        std::size_t& failures) {
  co_await ScriptWalk(self, script, failures);
}

TEST(NetworkFuzzTest, StepAwaiterChainsKeepOneFramePerProcessor) {
  util::Xoshiro256StarStar rng(0xf8a3e);
  for (int trial = 0; trial < 15; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 12));
    const auto k =
        static_cast<std::size_t>(rng.uniform(1, static_cast<int>(p)));
    const auto cycles = static_cast<std::size_t>(rng.uniform(1, 60));

    // One writer per cycle on a rotating channel; everyone else reads it.
    std::vector<Script> scripts(p, Script(cycles));
    for (std::size_t t = 0; t < cycles; ++t) {
      const std::size_t writer = t % p;
      const auto ch = static_cast<ChannelId>(t % k);
      const Word value = rng.uniform(-1000, 1000);
      scripts[writer][t].write = {{ch, value}};
      for (std::size_t i = 0; i < p; ++i) {
        if (i == writer) continue;
        scripts[i][t].read = ch;
        scripts[i][t].expect = value;
      }
    }

    Network net({.p = p, .k = k});
    std::size_t failures = 0;
    for (ProcId i = 0; i < p; ++i) {
      net.install(i, scripted_steps(net.proc(i), scripts[i], failures));
    }
    auto stats = net.run();
    EXPECT_EQ(failures, 0u) << "trial " << trial << " p=" << p << " k=" << k;
    EXPECT_EQ(stats.cycles, cycles);
    EXPECT_EQ(stats.messages, cycles);
    // One program frame per processor, however many awaiters it steps.
    EXPECT_EQ(stats.frame_allocs, p);
    // The first resume, then one step per cycle.
    EXPECT_EQ(stats.proc_resumes, p * (cycles + 1));
  }
}

TEST(NetworkFuzzTest, RandomCollisionsAlwaysDetected) {
  util::Xoshiro256StarStar rng(0xbad);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(2, 10));
    const auto k =
        static_cast<std::size_t>(rng.uniform(1, static_cast<int>(p)));
    const auto cycles = static_cast<std::size_t>(rng.uniform(1, 20));
    const auto bad_cycle =
        static_cast<std::size_t>(rng.uniform(0, static_cast<int>(cycles) - 1));
    const auto bad_channel =
        static_cast<ChannelId>(rng.uniform(0, static_cast<int>(k) - 1));

    std::vector<Script> scripts(p, Script(cycles));
    // Two distinct processors write the same channel in the same cycle.
    scripts[0][bad_cycle].write = {{bad_channel, 1}};
    scripts[1][bad_cycle].write = {{bad_channel, 2}};

    Network net({.p = p, .k = k});
    std::size_t failures = 0;
    for (ProcId i = 0; i < p; ++i) {
      net.install(i, scripted(net.proc(i), scripts[i], failures));
    }
    try {
      net.run();
      FAIL() << "collision not detected, trial " << trial;
    } catch (const CollisionError& e) {
      EXPECT_EQ(e.cycle(), bad_cycle);
      EXPECT_EQ(e.channel(), bad_channel);
    }
  }
}

}  // namespace
}  // namespace mcb
