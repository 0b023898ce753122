// Network configuration.
#pragma once

#include <cstddef>

#include "util/check.hpp"

namespace mcb {

class SpanSink;

namespace obs {
class Clock;  // src/obs/clock.hpp — host wall-clock seam
}  // namespace obs

/// Which simulation engine drives Network::run(). Both implement the exact
/// same synchronous-cycle semantics and produce bit-identical statistics
/// (cycles, messages, phases — see docs/ENGINE.md); they differ only in
/// wall-clock cost.
enum class Engine {
  /// Wake-queue scheduler: every suspension costs O(1) whatever its sleep
  /// length, per-cycle work scales with the processors actually
  /// participating, and runs of idle cycles are fast-forwarded. The default.
  kEventDriven,
  /// The original scan-the-world loop: O(p) scans plus an O(k) slot sweep
  /// every cycle. Kept as the executable semantics specification and as the
  /// baseline for bench_simspeed.
  kReference,
};

/// Static description of an MCB(p, k): p processors and k broadcast
/// channels, with k <= p (Section 2 of the paper).
struct SimConfig {
  std::size_t p = 0;  ///< processor count
  std::size_t k = 0;  ///< channel count

  /// Safety valve: a run exceeding this many cycles aborts with
  /// ProtocolError (deadlocked schedules would otherwise spin forever).
  std::size_t max_cycles = 1u << 28;

  /// Section 9 extension: allow a processor to read ALL channels in one
  /// cycle (Proc::cycle_all). Off by default — the standard MCB model
  /// permits one read per cycle, and the paper's algorithms never need
  /// more; the flag exists to study the extension.
  bool multi_read = false;

  /// Simulation engine (identical observable behaviour either way).
  Engine engine = Engine::kEventDriven;

  /// Host-side observer for protocol phase spans (obs::Span); not part of
  /// the model's configuration and excluded from engine-equivalence
  /// comparisons. Riding on SimConfig lets it reach the Network that
  /// algo::sort / select construct internally. Must outlive the run.
  /// nullptr (the default) costs one branch per span mark.
  SpanSink* span_sink = nullptr;

  /// Host wall-clock source for run telemetry (RunStats::sim_wall_ns, the
  /// one measure of host time). nullptr (the default) means the process
  /// steady clock (obs::default_clock()); tests inject a fake clock
  /// to make host-time telemetry deterministic. Never a protocol input —
  /// model time is the cycle counter (mcblint MCB-L2 holds the engine
  /// directories to that).
  obs::Clock* clock = nullptr;

  void validate() const {
    MCB_REQUIRE(p >= 1, "need at least one processor");
    MCB_REQUIRE(k >= 1, "need at least one channel");
    MCB_REQUIRE(k <= p, "MCB model requires k <= p (k=" << k << ", p=" << p
                                                        << ")");
  }
};

}  // namespace mcb
