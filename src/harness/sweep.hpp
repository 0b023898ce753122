// The parallel trial-sweep harness.
//
// Every empirical claim the repository reproduces (Theorems 1-5,
// Corollaries 1-7) is a statement over a grid of (p, k, n, shape, algorithm,
// seed) points; this subsystem runs such grids as a set of independent
// trials on a fixed-size worker pool, one single-threaded Network per trial,
// and aggregates across seeds.
//
// Determinism contract: per-trial seeds are derived as
//
//   seed(trial) = splitmix64(base_seed ^ splitmix64(trial_index))
//
// so a trial's workload — and therefore its cycle/message/aux accounting —
// depends only on (base_seed, trial_index), never on which worker ran it,
// in what order, or how many threads the pool had. Results are collected
// into stable trial order (trial_index), and the JSON serialization contains
// no host-side timing, so the serialized output of a sweep is byte-identical
// across thread counts. tests/harness_test.cpp pins this contract.
//
// Every trial also self-verifies: sorts must produce a descending
// permutation of their input (multiset fingerprint check), selections must
// return the true median of the flattened input. A trial that fails
// verification, or throws (e.g. an infeasible k > p grid point), records an
// error string instead of aborting the sweep; aggregation skips errored
// trials and reports their count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcb/sim_config.hpp"
#include "mcb/types.hpp"
#include "obs/span.hpp"
#include "util/workload.hpp"

namespace mcb::harness {

/// One grid point: a network geometry, a workload shape and an algorithm.
/// `algorithm` is either "select" (median selection, Section 8) or one of
/// the sort algorithm names accepted by algo::sort_algorithm_from_string
/// ("auto", "columnsort", "virtual", "recursive", "uneven", "ranksort",
/// "mergesort", "central").
struct GridPoint {
  std::size_t p = 16;
  std::size_t k = 4;
  std::size_t n = 1024;
  util::Shape shape = util::Shape::kEven;
  std::string algorithm = "auto";
};

/// A sweep: either the cartesian product of the axes below (enumerated
/// p-major: p, then k, then n, then shape, then algorithm), or an explicit
/// point list, crossed with `seeds` trials per point.
struct Sweep {
  std::vector<std::size_t> ps{16};
  std::vector<std::size_t> ks{4};
  std::vector<std::size_t> ns{1024};
  std::vector<util::Shape> shapes{util::Shape::kEven};
  std::vector<std::string> algorithms{"auto"};

  /// When non-empty, replaces the cartesian axes entirely (used by benches
  /// whose grids are tuple lists, not products).
  std::vector<GridPoint> explicit_points;

  std::uint64_t base_seed = 1;
  std::size_t seeds = 1;  ///< trials per grid point
  Engine engine = Engine::kEventDriven;

  /// Attach a check::ConformanceChecker to every trial: each run's event
  /// stream is independently re-validated against the MCB model rules and
  /// reconciled against its RunStats and the paper's bounds. A trial with
  /// violations records an error (and the violation count below) instead of
  /// aborting the sweep. Deterministic given the spec, so serialized.
  bool check = false;

  /// Attach an obs::Recorder to every trial: phase spans are collected,
  /// reconciled against the run's PhaseStats (a reconciliation failure
  /// becomes the trial's error) and summarized into TrialResult::spans.
  /// Deterministic given the spec, so the summaries are serialized — the
  /// "spans" arrays appear in the JSON only when this flag is on, keeping
  /// obs-off output byte-identical to previous versions.
  bool obs = false;

  /// Grid points in stable enumeration order.
  std::vector<GridPoint> points() const;
  std::size_t trials() const { return points().size() * seeds; }
};

/// Derives the workload seed of a trial (see the determinism contract
/// above).
std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t trial_index);

/// One trial, fully determined at sweep-expansion time.
struct TrialSpec {
  std::size_t trial_index = 0;  ///< position in stable result order
  std::size_t point_index = 0;  ///< index into Sweep::points()
  std::size_t seed_index = 0;   ///< 0..seeds-1 within the point
  GridPoint point;
  std::uint64_t seed = 0;  ///< trial_seed(base_seed, trial_index)
};

/// Model-level accounting of one trial plus its bound comparison. The
/// host-side sim_wall_ns is telemetry only and never serialized into the
/// deterministic sweep JSON.
struct TrialResult {
  Cycle cycles = 0;
  std::uint64_t messages = 0;
  std::size_t peak_aux_words = 0;
  std::uint64_t proc_resumes = 0;
  std::uint64_t sim_wall_ns = 0;
  /// Frame-arena telemetry. Deterministic given the spec (the trial's
  /// coroutine execution is), so sweep_json serializes it, in the trial's
  /// `host` object: it moves whenever the engine changes, and `mcbsim
  /// strip-host` removes it. Zero in MCB_FRAME_ARENA=OFF builds.
  std::uint64_t frame_allocs = 0;
  std::uint64_t frame_frees = 0;
  std::uint64_t arena_bytes_peak = 0;
  double arena_hit_rate = 0.0;
  /// Theta-term predictions from theory/bounds for this point's geometry.
  double predicted_cycles = 0.0;
  double predicted_messages = 0.0;
  /// Model-conformance violations found by the checker (0 when the sweep
  /// ran without Sweep::check, or when the run conformed).
  std::uint64_t conformance_violations = 0;
  /// Per-phase span summaries (first-appearance order); populated only when
  /// the sweep ran with Sweep::obs. Deterministic given the spec.
  std::vector<obs::SpanSummary> spans;
  std::string algorithm_used;  ///< resolved algorithm (e.g. auto -> ...)
  std::string error;           ///< empty on success
  bool ok() const { return error.empty(); }
};

/// min/mean/max and nearest-rank percentiles of one metric across the
/// successful trials of a grid point.
struct Summary {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Computes a Summary. Percentiles use the nearest-rank rule
/// (obs::nearest_rank) on the sorted values; empty input yields all zeros.
Summary summarize(std::vector<double> values);

/// Cross-seed aggregation of one grid point.
struct PointAggregate {
  GridPoint point;
  std::size_t trials = 0;
  std::size_t failed = 0;  ///< trials excluded from the summaries
  Summary cycles;
  Summary messages;
  Summary peak_aux_words;
  /// mean measured / Theta-term predicted (0 when no prediction applies).
  double cycles_vs_predicted = 0.0;
  double messages_vs_predicted = 0.0;
};

struct SweepOptions {
  std::size_t threads = 0;  ///< worker count; 0 = hardware concurrency
};

/// A completed sweep: specs/results in stable trial order plus per-point
/// aggregates. wall_ns/threads_used are host-side telemetry (not part of
/// the deterministic serialization).
struct SweepRun {
  Sweep sweep;
  std::vector<TrialSpec> specs;
  std::vector<TrialResult> results;  // parallel to specs
  std::vector<PointAggregate> aggregates;
  std::uint64_t wall_ns = 0;
  std::size_t threads_used = 1;
};

/// Expands the sweep into trial specs (stable order; pure).
std::vector<TrialSpec> expand(const Sweep& sweep);

/// Runs one trial on the calling thread (pure given the spec). With
/// `check`, a ConformanceChecker observes the run; violations become the
/// trial's error. With `obs`, an obs::Recorder collects phase spans into
/// TrialResult::spans; a span/PhaseStats reconciliation failure becomes the
/// trial's error.
TrialResult run_trial(const TrialSpec& spec, Engine engine,
                      bool check = false, bool obs = false);

/// Runs the whole sweep on a worker pool and aggregates.
SweepRun run_sweep(const Sweep& sweep, const SweepOptions& opts = {});

/// Deterministic JSON serialization of a sweep run: grid, per-trial results
/// and per-point aggregates, excluding all host-side timing. Byte-identical
/// across thread counts for the same Sweep.
std::string sweep_json(const SweepRun& run);

}  // namespace mcb::harness
