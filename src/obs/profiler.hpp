// Host-side run profiler: wall-clock accounting for Network::run() calls.
//
// Every other collector in src/obs runs in *simulated* time; this one runs
// in *host* time. Today it counts runs and their summed wall time — the
// seam a per-step profile of the serial cycle loop (fast-forward, write
// commit, reads, drain, resume) will be rebuilt on.
//
// Attachment mirrors the SpanSink pattern: ride on SimConfig::profiler,
// nullptr by default, so a disabled profiler costs one predicted branch per
// instrumentation site and a missing one costs nothing. Wall time is read
// exclusively through the obs::Clock seam (obs/clock.hpp) — tests inject a
// FakeClock to pin the arithmetic, and the model directories stay free of
// direct *_clock::now() calls (mcblint MCB-L2).
//
// Determinism contract: everything recorded here is host telemetry. It is
// serialized only inside `host_profile` JSON subtrees, which are explicitly
// excluded from the byte-identical determinism contract; `mcbsim
// strip-host` removes them so CI can cmp profiled against unprofiled runs.
// See docs/OBSERVABILITY.md ("Host time vs simulated time").
//
// One profiler may span several Network::run() calls (the serving loop
// reset()s and re-runs one network per query batch): begin_run()/end_run()
// bracket each run and everything accumulates across them.
#pragma once

#include <cstdint>
#include <string>

#include "obs/clock.hpp"

namespace mcb::obs {

class Profiler {
 public:
  /// `clock` nullptr means obs::default_clock().
  explicit Profiler(Clock* clock = nullptr);

  // --- engine hooks (Network; each guarded by one profiler != nullptr
  // branch at the call site) ---

  void begin_run();
  void end_run();

  // --- accessors (renderers, tests) ---

  std::uint64_t runs() const { return runs_; }
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// The `host_profile` JSON subtree (strict RFC 8259 object). Host
  /// telemetry — quarantined from the determinism contract.
  std::string json() const;

  /// One-line text rendering for CLI output (same content as json()).
  std::string text() const;

 private:
  Clock* clock_;
  std::uint64_t run_t0_ = 0;
  bool run_open_ = false;
  std::uint64_t runs_ = 0;
  std::uint64_t run_wall_ns_ = 0;
};

}  // namespace mcb::obs
