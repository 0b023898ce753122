// Chrome trace-event / Perfetto-compatible JSON export.
//
// Serializes a finished run's telemetry into the JSON trace-event format
// that chrome://tracing and ui.perfetto.dev load directly:
//
//   * pid 1 ("phase spans") — one thread track carrying the recorder's
//     nested B/E duration events, emitted in proper stack order (begin,
//     children, end), timestamped in simulated cycles with the span's
//     message delta in args.
//   * pid 2 ("channels") — one counter track per channel ("C1 writes", ...)
//     with one counter sample per timeline bucket, so per-channel
//     utilization renders as k stacked area charts.
//
// Timestamps are simulated cycles, not host time — both tracks read only
// deterministic state, so the trace of a deterministic run is
// byte-identical across engines and repetitions. The output is strict
// RFC 8259 JSON (tests parse it back with util::json).
#pragma once

#include <string>

#include "mcb/sim_config.hpp"
#include "mcb/stats.hpp"

namespace mcb::obs {

class Recorder;
class Timeline;

/// Renders the trace-event JSON document. Any collector may be null (its
/// tracks are simply absent). `cfg` supplies p and k for the header.
std::string chrome_trace_json(const RunStats& stats, const SimConfig& cfg,
                              const Recorder* spans, const Timeline* timeline);

/// The model side of one RunStats as a JSON object — the "stats" member of
/// `mcbsim sort/select --json`: cycles, messages, peak_aux_words,
/// proc_resumes (engine-invariant, so the engines' documents cmp equal with
/// it) and phases. No host telemetry.
std::string run_stats_json(const RunStats& stats);

/// The host side of one RunStats as a JSON object — the "host" member
/// `--profile` adds: sim_wall_ns, cycles_per_sec, frame_allocs and
/// frame_bytes. Outside the determinism contract; `mcbsim strip-host` removes
/// every `host` member. Strict RFC 8259: the double fields go through
/// util::json_double, so a non-finite value renders as 0 rather than an
/// unparseable bare `nan`/`inf` token.
std::string host_stats_json(const RunStats& stats);

}  // namespace mcb::obs
