// Reset-equivalence suite for the serving path (Network::reset).
//
// The contract under test: a program run through a reset() network is
// observationally identical to the same program run through a freshly
// constructed one — same model accounting, same cycle-by-cycle trace
// stream, same conformance verdict, same frame counts — on both engines.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/multi_select.hpp"
#include "check/conformance.hpp"
#include "mcb/errors.hpp"
#include "mcb/network.hpp"
#include "mcb/trace.hpp"
#include "util/workload.hpp"

namespace mcb {
namespace {

struct EngineCase {
  Engine engine;
  const char* label;
};

const EngineCase kEngineGrid[] = {
    {Engine::kReference, "reference"},
    {Engine::kEventDriven, "event"},
};

SimConfig make_cfg(std::size_t p, std::size_t k, const EngineCase& ec) {
  SimConfig cfg{.p = p, .k = k};
  cfg.engine = ec.engine;
  return cfg;
}

/// Every model-level field plus the frame counts.
void expect_equivalent_runs(const RunStats& fresh, const RunStats& reset,
                            const std::string& label) {
  EXPECT_EQ(fresh.cycles, reset.cycles) << label;
  EXPECT_EQ(fresh.messages, reset.messages) << label;
  EXPECT_EQ(fresh.messages_per_proc, reset.messages_per_proc) << label;
  EXPECT_EQ(fresh.messages_per_channel, reset.messages_per_channel) << label;
  EXPECT_EQ(fresh.peak_aux_words, reset.peak_aux_words) << label;
  EXPECT_EQ(fresh.proc_resumes, reset.proc_resumes) << label;
  ASSERT_EQ(fresh.phases.size(), reset.phases.size()) << label;
  for (std::size_t i = 0; i < fresh.phases.size(); ++i) {
    EXPECT_EQ(fresh.phases[i].name, reset.phases[i].name) << label;
    EXPECT_EQ(fresh.phases[i].first_cycle, reset.phases[i].first_cycle)
        << label << " phase " << fresh.phases[i].name;
    EXPECT_EQ(fresh.phases[i].cycles, reset.phases[i].cycles)
        << label << " phase " << fresh.phases[i].name;
    EXPECT_EQ(fresh.phases[i].messages, reset.phases[i].messages)
        << label << " phase " << fresh.phases[i].name;
  }
  // reset() restarts the counts, so a second run reports exactly a fresh
  // network's frames.
  EXPECT_EQ(fresh.frame_allocs, reset.frame_allocs) << label;
  EXPECT_EQ(fresh.frame_bytes, reset.frame_bytes) << label;
}

/// Staggered sleepers (distinct write cycles, so collision-free), a phase
/// mark, and per-proc tails — the skip-heavy shape that exercises the wake
/// queue's reset hardest.
void install_sleepers(Network& net, const SimConfig& cfg) {
  auto sleeper = [](Proc& self, Cycle gap) -> ProcMain {
    if (self.id() == 0) self.mark_phase("stagger");
    co_await self.window(gap);
    co_await self.write(static_cast<ChannelId>(self.id() % self.k()),
                        Message::of(static_cast<Word>(self.id())));
    if (self.id() == 0) self.mark_phase("tail");
    co_await self.window(3 * (self.id() + 1));
  };
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, sleeper(net.proc(i), 11 * (i + 1)));
  }
}

TEST(ResetEquivalence, HandRolledProtocolMatchesFreshNetworks) {
  for (const auto& ec : kEngineGrid) {
    const auto cfg = make_cfg(24, 4, ec);

    auto run_fresh = [&]() {
      Network net(cfg);
      install_sleepers(net, cfg);
      return net.run();
    };
    const RunStats fresh1 = run_fresh();
    const RunStats fresh2 = run_fresh();

    Network net(cfg);
    install_sleepers(net, cfg);
    const RunStats r1 = net.run();
    net.reset();
    install_sleepers(net, cfg);
    const RunStats r2 = net.run();

    expect_equivalent_runs(fresh1, r1, std::string(ec.label) + "/run1");
    expect_equivalent_runs(fresh2, r2, std::string(ec.label) + "/run2");
  }
}

TEST(ResetEquivalence, ServingSelectRanksPathMatchesFreshNetworks) {
  // The serving layer's actual reuse pattern: consecutive batches with
  // *different* rank lists (different programs, different frame shapes)
  // through one network.
  const auto w = util::make_workload(512, 16, util::Shape::kRandom, 3);
  const std::vector<std::size_t> batch1 = {1, 52, 256, 500};
  const std::vector<std::size_t> batch2 = {7, 412};
  for (const auto& ec : kEngineGrid) {
    const auto cfg = make_cfg(16, 4, ec);

    auto run_fresh = [&](const std::vector<std::size_t>& ds) {
      Network net(cfg);
      return algo::select_ranks_on(net, w.inputs, ds);
    };
    const auto fresh1 = run_fresh(batch1);
    const auto fresh2 = run_fresh(batch2);

    Network net(cfg);
    const auto r1 = algo::select_ranks_on(net, w.inputs, batch1);
    net.reset();
    const auto r2 = algo::select_ranks_on(net, w.inputs, batch2);

    EXPECT_EQ(fresh1.values, r1.values) << ec.label;
    EXPECT_EQ(fresh2.values, r2.values) << ec.label;
    EXPECT_EQ(fresh1.filter_phases, r1.filter_phases) << ec.label;
    EXPECT_EQ(fresh2.filter_phases, r2.filter_phases) << ec.label;
    expect_equivalent_runs(fresh1.stats, r1.stats,
                           std::string(ec.label) + "/batch1");
    expect_equivalent_runs(fresh2.stats, r2.stats,
                           std::string(ec.label) + "/batch2");
  }
}

TEST(ResetEquivalence, TraceStreamAndConformanceSurviveReset) {
  // Strongest form: the cycle-by-cycle event stream of a reset network's
  // two runs is the concatenation of the two fresh networks' streams, and
  // each segment independently passes the model-conformance checker
  // reconciled against its own run's stats.
  const auto w = util::make_workload(256, 8, util::Shape::kEven, 5);
  const std::vector<std::size_t> batch1 = {1, 128, 200};
  const std::vector<std::size_t> batch2 = {64, 64, 9};
  for (const auto& ec : kEngineGrid) {
    const auto cfg = make_cfg(8, 2, ec);

    auto run_traced = [&](const std::vector<std::size_t>& ds,
                          ChannelTrace& trace) {
      Network net(cfg, &trace);
      return algo::select_ranks_on(net, w.inputs, ds);
    };
    ChannelTrace fresh_trace1(1u << 20);
    ChannelTrace fresh_trace2(1u << 20);
    const auto fresh1 = run_traced(batch1, fresh_trace1);
    const auto fresh2 = run_traced(batch2, fresh_trace2);
    ASSERT_FALSE(fresh_trace1.truncated());
    ASSERT_FALSE(fresh_trace2.truncated());

    ChannelTrace trace(1u << 20);
    Network net(cfg, &trace);
    const auto r1 = algo::select_ranks_on(net, w.inputs, batch1);
    const std::size_t cut = trace.events().size();
    net.reset();
    const auto r2 = algo::select_ranks_on(net, w.inputs, batch2);
    ASSERT_FALSE(trace.truncated());

    const auto& a1 = fresh_trace1.events();
    const auto& a2 = fresh_trace2.events();
    const auto& b = trace.events();
    ASSERT_EQ(cut, a1.size()) << ec.label;
    ASSERT_EQ(b.size(), a1.size() + a2.size()) << ec.label;
    auto same = [&](const CycleEvent& x, const CycleEvent& y,
                    std::size_t i) {
      EXPECT_EQ(x.cycle, y.cycle) << ec.label << " event " << i;
      EXPECT_EQ(x.proc, y.proc) << ec.label << " event " << i;
      EXPECT_EQ(x.wrote, y.wrote) << ec.label << " event " << i;
      EXPECT_EQ(x.sent, y.sent) << ec.label << " event " << i;
      EXPECT_EQ(x.read, y.read) << ec.label << " event " << i;
      EXPECT_EQ(x.received, y.received) << ec.label << " event " << i;
    };
    for (std::size_t i = 0; i < a1.size(); ++i) same(a1[i], b[i], i);
    for (std::size_t i = 0; i < a2.size(); ++i) same(a2[i], b[cut + i], i);

    // Each run segment re-checked from the event stream alone.
    check::ConformanceChecker c1(cfg);
    for (std::size_t i = 0; i < cut; ++i) c1.on_event(b[i]);
    EXPECT_TRUE(c1.finish(r1.stats).ok()) << ec.label << "\n"
                                          << c1.report().summary();
    check::ConformanceChecker c2(cfg);
    for (std::size_t i = cut; i < b.size(); ++i) c2.on_event(b[i]);
    EXPECT_TRUE(c2.finish(r2.stats).ok()) << ec.label << "\n"
                                          << c2.report().summary();
  }
}

TEST(ResetEquivalence, RunIsSingleShotUntilReset) {
  const SimConfig cfg{.p = 4, .k = 2};
  Network net(cfg);
  install_sleepers(net, cfg);
  const RunStats first = net.run();
  EXPECT_THROW(net.run(), std::invalid_argument);
  net.reset();
  install_sleepers(net, cfg);
  const RunStats again = net.run();
  EXPECT_EQ(first.cycles, again.cycles);
  EXPECT_EQ(first.messages, again.messages);
}

TEST(ResetEquivalence, ResetRecoversFromAbortedRun) {
  // A collision aborts the run mid-flight with suspended coroutines still
  // installed; reset() must tear that state down and re-arm the network.
  const SimConfig cfg{.p = 4, .k = 2};
  Network net(cfg);
  auto collider = [](Proc& self) -> ProcMain {
    co_await self.write(0, Message::of(static_cast<Word>(self.id())));
  };
  for (ProcId i = 0; i < cfg.p; ++i) net.install(i, collider(net.proc(i)));
  EXPECT_THROW(net.run(), CollisionError);

  net.reset();
  install_sleepers(net, cfg);
  Network fresh(cfg);
  install_sleepers(fresh, cfg);
  const RunStats want = fresh.run();
  const RunStats got = net.run();
  expect_equivalent_runs(want, got, "post-abort reset");
}

}  // namespace
}  // namespace mcb
