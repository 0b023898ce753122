#include "mcb/stats.hpp"

namespace mcb {

double safe_cycles_per_sec(Cycle cycles, std::uint64_t wall_ns) {
  if (wall_ns == 0) return 0.0;
  return static_cast<double>(cycles) * 1e9 / static_cast<double>(wall_ns);
}

const PhaseStats* RunStats::phase(const std::string& name) const {
  for (const auto& ph : phases) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

}  // namespace mcb
