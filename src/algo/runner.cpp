#include "algo/runner.hpp"

#include "util/check.hpp"

namespace mcb::algo {

AlgoResult run_network(const SimConfig& cfg,
                       const std::vector<std::vector<Word>>& inputs,
                       const ProgramFactory& factory, TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p,
              "inputs for " << inputs.size() << " processors but p=" << cfg.p);

  AlgoResult result;
  result.outputs.resize(cfg.p);

  Network net(cfg, sink);
  for (std::size_t i = 0; i < cfg.p; ++i) {
    const auto id = static_cast<ProcId>(i);
    net.install(id, factory(net.proc(id), inputs[i], result.outputs[i]));
  }
  result.stats = net.run();
  return result;
}

}  // namespace mcb::algo
