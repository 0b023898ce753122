// The host wall-clock seam.
//
// Model time in this repo is the cycle counter; wall time is host telemetry
// (RunStats::sim_wall_ns) and must never become a protocol input. mcblint
// rule MCB-L2 enforces that by flagging any direct `*_clock::now()` call
// inside the model directories (src/mcb, src/algo, src/se, src/sched,
// src/serve). Engine code therefore reads wall time only
// through this interface: the call site names *what* it measures, the
// implementation lives here in src/obs — host-observability territory,
// outside MCB-L2's scope — and tests inject a fake clock to make host-time
// telemetry deterministic (tests/obs_test.cpp).
//
// The interface is deliberately one method: a monotonic nanosecond stamp.
// Differences of now_ns() are durations; absolute values carry no epoch
// contract (SteadyClock uses the std::chrono::steady_clock epoch).
#pragma once

#include <chrono>
#include <cstdint>

namespace mcb::obs {

/// Monotonic nanosecond clock. Implementations must be safe to call from
/// any thread (sweep trials on different threads share default_clock()).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_ns() = 0;
};

/// The real host clock: std::chrono::steady_clock in nanoseconds.
class SteadyClock final : public Clock {
 public:
  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// The process-wide default clock (a shared SteadyClock), used whenever no
/// clock was injected (SimConfig::clock == nullptr).
inline Clock& default_clock() {
  static SteadyClock clock;
  return clock;
}

}  // namespace mcb::obs
