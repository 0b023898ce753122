// Harness for running a distributed algorithm on a fresh network.
//
// All algorithms in algo/ share one calling convention: per-processor input
// lists in, per-processor output lists plus run statistics out. The runner
// owns the output storage; the inputs stay the caller's, borrowed for the
// synchronous run, so processor coroutines can safely hold references to
// both without a copy.
#pragma once

#include <functional>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/network.hpp"
#include "mcb/sim_config.hpp"
#include "mcb/stats.hpp"
#include "mcb/types.hpp"

namespace mcb::algo {

/// Result of running a distributed algorithm.
struct AlgoResult {
  /// outputs[i] is processor i's local list after the algorithm.
  std::vector<std::vector<Word>> outputs;
  RunStats stats;
};

/// Creates one processor program. `input` is the processor's initial local
/// list (alive for the whole run); the program writes its result to
/// `output`.
using ProgramFactory = std::function<ProcMain(
    Proc& self, const std::vector<Word>& input, std::vector<Word>& output)>;

/// Spawns factory(i) on every processor of an MCB(cfg.p, cfg.k), runs to
/// quiescence and returns outputs + stats. `inputs.size()` must equal cfg.p.
AlgoResult run_network(const SimConfig& cfg,
                       const std::vector<std::vector<Word>>& inputs,
                       const ProgramFactory& factory,
                       TraceSink* sink = nullptr);

}  // namespace mcb::algo
