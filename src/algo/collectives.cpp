#include "algo/collectives.hpp"

#include <algorithm>

#include "mcb/network.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

Word local_fold(std::span<const Word> local, const SumOp& op) {
  Word acc = op.identity;
  for (Word w : local) acc = op.combine(acc, w);
  return acc;
}

}  // namespace

Reduce find_max(Proc& self, std::span<const Word> local) {
  return reduce(self, local_fold(local, SumOp::max()), SumOp::max());
}

Reduce find_min(Proc& self, std::span<const Word> local) {
  return reduce(self, local_fold(local, SumOp::min()), SumOp::min());
}

Reduce count_ge(Proc& self, std::span<const Word> local, Word pivot) {
  Word count = 0;
  for (Word w : local) {
    if (w >= pivot) ++count;
  }
  return reduce(self, count, SumOp::add());
}

namespace {

enum class Kind { kMax, kMin, kCountGe };

Reduce collective(Proc& self, Kind kind, Word pivot,
                  std::span<const Word> local) {
  switch (kind) {
    case Kind::kMax:
      return find_max(self, local);
    case Kind::kMin:
      return find_min(self, local);
    case Kind::kCountGe:
      break;
  }
  return count_ge(self, local, pivot);
}

ProcMain collective_program(Proc& self, Kind kind, Word pivot,
                            const std::vector<Word>& local, Word& out) {
  out = co_await collective(self, kind, pivot, local);
}

CollectiveResult run_collective(const SimConfig& cfg,
                                const std::vector<std::vector<Word>>& inputs,
                                Kind kind, Word pivot) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  MCB_REQUIRE(total > 0 || kind == Kind::kCountGe,
              "extrema of an empty multiset");

  std::vector<Word> answers(cfg.p, 0);
  Network net(cfg);
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, collective_program(net.proc(i), kind, pivot, inputs[i],
                                      answers[i]));
  }
  CollectiveResult result;
  result.stats = net.run();
  result.value = answers[0];
  for (std::size_t i = 1; i < cfg.p; ++i) {
    MCB_CHECK(answers[i] == answers[0], "P" << i + 1 << " disagrees");
  }
  return result;
}

}  // namespace

CollectiveResult run_find_max(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs) {
  return run_collective(cfg, inputs, Kind::kMax, 0);
}

CollectiveResult run_find_min(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs) {
  return run_collective(cfg, inputs, Kind::kMin, 0);
}

CollectiveResult run_count_ge(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs,
                              Word pivot) {
  return run_collective(cfg, inputs, Kind::kCountGe, pivot);
}

}  // namespace mcb::algo
