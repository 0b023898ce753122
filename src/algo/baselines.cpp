#include "algo/baselines.hpp"

#include <utility>

#include "algo/common.hpp"
#include "algo/partial_sums.hpp"
#include "algo/uneven_sort.hpp"
#include "mcb/network.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

/// P_1 broadcasts the sorted pool rank by rank on channel 0; every other
/// processor keeps its segment, ranks [lo, hi) (counts are preserved by
/// sorting), and sleeps outside that window.
Task<void> scatter(Proc& self, const std::vector<Word>& pool, std::size_t n,
                   std::size_t lo, std::size_t hi, std::vector<Word>& output) {
  if (self.id() == 0) {
    output.assign(pool.begin() + static_cast<std::ptrdiff_t>(lo),
                  pool.begin() + static_cast<std::ptrdiff_t>(hi));
    auto aw = write_window(self, pool, 0);
    co_await aw;
  } else {
    output.resize(hi - lo);
    auto aw = read_window(self, lo, output, 0, n - hi);
    co_await aw;
  }
}

ProcMain central_program(Proc& self, const std::vector<Word>& input,
                         std::vector<Word>& output) {
  const std::size_t i = self.id();

  // Prefix counts drive both the gather offsets and the final segment.
  const auto ps = co_await partial_sums(
      self, static_cast<Word>(input.size()), SumOp::add(),
      {.with_total = true});
  const auto n = static_cast<std::size_t>(ps.total);
  const auto lo = static_cast<std::size_t>(ps.before);
  const auto hi = static_cast<std::size_t>(ps.self);

  if (i == 0) self.mark_phase("gather");
  std::vector<Word> pool;
  if (i == 0) {
    // P_1 streams its own window, reads everyone else's.
    pool.resize(n);
    auto aw = collect_window(self, input, lo, pool);
    co_await aw;
    self.note_aux(pool.size());
    seq::sort_descending(pool);
  } else {
    auto aw = write_window(self, input, lo, 0, n - hi);
    co_await aw;
  }

  if (i == 0) self.mark_phase("scatter");
  co_await scatter(self, pool, n, lo, hi, output);
}

ProcMain central_multiread_program(Proc& self, std::size_t ni,
                                   const std::vector<Word>& input,
                                   std::vector<Word>& output) {
  const std::size_t i = self.id();
  const std::size_t p = self.p();
  const std::size_t k = self.k();
  const std::size_t n = p * ni;

  // --- gather: k parallel writer streams, P_1 multi-reads all channels ----
  if (i == 0) self.mark_phase("gather-multiread");
  const std::size_t streams = k;
  const std::size_t longest = ceil_div(p - 1, streams);
  const Cycle gather_cycles = static_cast<Cycle>(longest * ni);
  std::vector<Word> pool;
  if (i == 0) {
    pool.reserve(n);
    pool.insert(pool.end(), input.begin(), input.end());
    for (Cycle t = 0; t < gather_cycles; ++t) {
      auto got = co_await self.cycle_all(std::nullopt);
      for (const auto& msg : got) {
        if (msg) pool.push_back(msg->at(0));
      }
    }
    MCB_CHECK(pool.size() == n, "collector holds " << pool.size() << " of "
                                                   << n);
    self.note_aux(pool.size());
    seq::sort_descending(pool);
  } else {
    const std::size_t stream = (i - 1) % streams;
    const std::size_t slot = (i - 1) / streams;
    auto aw = write_window(self, input, slot * ni,
                           static_cast<ChannelId>(stream),
                           gather_cycles - (slot + 1) * ni);
    co_await aw;
  }

  // --- scatter: rank by rank on channel 0 (the single-writer bottleneck) --
  if (i == 0) self.mark_phase("scatter");
  co_await scatter(self, pool, n, i * ni, (i + 1) * ni, output);
}

}  // namespace

AlgoResult central_sort_multiread(const SimConfig& cfg,
                                  const std::vector<std::vector<Word>>& inputs,
                                  TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(cfg.multi_read,
              "central_sort_multiread needs SimConfig::multi_read");
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  const std::size_t ni = inputs.front().size();
  MCB_REQUIRE(ni > 0, "every processor needs at least one element");
  for (const auto& in : inputs) {
    MCB_REQUIRE(in.size() == ni, "distribution is not even");
  }
  return run_network(
      cfg, inputs,
      [ni](Proc& self, const std::vector<Word>& in, std::vector<Word>& out) {
        return central_multiread_program(self, ni, in, out);
      },
      sink);
}

AlgoResult central_sort(const SimConfig& cfg,
                        const std::vector<std::vector<Word>>& inputs,
                        TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  for (const auto& in : inputs) {
    MCB_REQUIRE(!in.empty(), "every processor needs at least one element");
  }
  return run_network(
      cfg, inputs,
      [](Proc& self, const std::vector<Word>& in, std::vector<Word>& out) {
        return central_program(self, in, out);
      },
      sink);
}

SelectionResult selection_by_sorting(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs,
    std::size_t d, TraceSink* sink) {
  std::size_t n = 0;
  for (const auto& in : inputs) n += in.size();
  MCB_REQUIRE(1 <= d && d <= n, "rank " << d << " of " << n);

  auto sorted = uneven_sort(cfg, inputs, sink);
  // Locate rank d (1-based) in the output segments; "announcing" it costs
  // one more message and cycle, accounted on top of the sort's stats.
  std::size_t at = d - 1;
  SelectionResult result;
  for (const auto& out : sorted.run.outputs) {
    if (at < out.size()) {
      result.value = out[at];
      break;
    }
    at -= out.size();
  }
  result.stats = sorted.run.stats;
  result.stats.cycles += 1;
  result.stats.messages += 1;
  result.filter_phases = 0;
  return result;
}

}  // namespace mcb::algo
