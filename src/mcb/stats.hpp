// Run statistics: the two complexity measures of the MCB model (cycles and
// messages), broken down per processor, per channel and per named algorithm
// phase, plus auxiliary-storage accounting used to validate the memory
// claims of Section 6.1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcb/types.hpp"

namespace mcb {

/// Accounting for one named span of cycles (e.g. "transpose", "phase 0").
struct PhaseStats {
  std::string name;
  Cycle first_cycle = 0;   ///< first cycle belonging to the phase
  Cycle cycles = 0;        ///< number of cycles spanned
  std::uint64_t messages = 0;
};

/// Simulated cycles per host second, guarded against sub-resolution runs:
/// a run so short that the steady clock measured sim_wall_ns == 0 reports
/// 0.0 rather than leaking inf/NaN into JSON consumers.
double safe_cycles_per_sec(Cycle cycles, std::uint64_t wall_ns);

struct RunStats {
  Cycle cycles = 0;              ///< total cycles until quiescence
  std::uint64_t messages = 0;    ///< total broadcasts (channel writes)
  std::vector<std::uint64_t> messages_per_proc;
  std::vector<std::uint64_t> messages_per_channel;
  std::vector<std::size_t> peak_aux_words;  ///< per-proc max noted storage
  std::vector<PhaseStats> phases;

  // Simulator telemetry (host-side; not part of the model's accounting and
  // excluded from engine-equivalence comparisons).
  std::uint64_t sim_wall_ns = 0;   ///< wall-clock spent inside Network::run()
  std::uint64_t proc_resumes = 0;  ///< coroutine resumptions performed
  double cycles_per_sec = 0.0;     ///< simulated cycles per host second

  // Frame-arena telemetry (util/arena.hpp): coroutine frames allocated by
  // this run's protocol code. All zero under MCB_FRAME_ARENA=OFF.
  std::uint64_t frame_allocs = 0;      ///< frames served by the arena
  std::uint64_t frame_frees = 0;       ///< frames recycled into the arena
  std::uint64_t frame_reuses = 0;      ///< allocs served from a free list
  std::uint64_t arena_bytes_peak = 0;  ///< peak live frame bytes
  double arena_hit_rate = 0.0;         ///< free-list reuse fraction [0, 1]

  /// Largest per-processor auxiliary storage over the whole run.
  std::size_t max_peak_aux() const {
    std::size_t m = 0;
    for (std::size_t v : peak_aux_words) m = m > v ? m : v;
    return m;
  }

  /// Finds a phase by name; nullptr if absent. Phases with duplicate names
  /// are accumulated into the first occurrence when recorded.
  const PhaseStats* phase(const std::string& name) const;
};

}  // namespace mcb
