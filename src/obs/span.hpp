// RAII protocol spans and their recorder.
//
// The paper's complexity claims are per-phase claims (Columnsort's 10
// phases, selection's filtering rounds), so the telemetry layer records
// *where* the cycles and messages went, not just the end-of-run totals.
// Every Proc::mark_phase is itself a span: the network begins it at the
// mark and ends it at the next mark or at the end of the run, so a phase
// has one source for its PhaseStats row and its span. Protocol code opens
// an obs::Span around a sub-protocol inside a phase:
//
//   {
//     obs::Span sp(self, "partial-sums");
//     ... the collective ...
//   }  // span closes here
//
// Spans nest (RAII inside one coroutine guarantees well-formed nesting),
// are stamped in *simulated cycles*, and carry the network-wide message
// delta over their lifetime. By the same convention as Proc::mark_phase,
// only processor 0's spans are recorded — Span checks the id itself, so
// call sites need no `if (i == 0)` guard. With no recorder attached
// (SimConfig::span_sink == nullptr) a span costs two predictable branches.
//
// The Recorder buffers at most `capacity` records (drops beyond it, counted
// in dropped()) and aggregates them into per-name summaries; reconcile()
// cross-checks the records against the run's PhaseStats. A phase's span
// ends on whatever record is open at the next mark, so a sub-span left
// open across a phase mark shows up there as an ill-formed stream or a
// phase whose span totals disagree with its PhaseStats row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mcb/proc.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"
#include "mcb/types.hpp"

namespace mcb::obs {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// One recorded span, in begin order. Collision deltas are intentionally
/// absent: a collision aborts the run (CollisionError), so a span can never
/// observe a nonzero count.
struct SpanRecord {
  std::string name;
  std::size_t parent = kNoParent;  ///< index of the enclosing record
  std::size_t depth = 0;           ///< 0 = top-level
  Cycle begin_cycle = 0;
  Cycle end_cycle = 0;
  std::uint64_t begin_messages = 0;
  std::uint64_t end_messages = 0;
  bool closed = false;

  Cycle cycles() const { return end_cycle - begin_cycle; }
  std::uint64_t messages() const { return end_messages - begin_messages; }
};

/// Per-name aggregate of the records, in first-appearance order (stable and
/// engine-independent, so it serializes deterministically).
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  Cycle cycles = 0;
  std::uint64_t messages = 0;
};

/// Collects Span begin/end marks into SpanRecords. Attach via
/// SimConfig::span_sink; the recorder must outlive the Network.
class Recorder final : public SpanSink {
 public:
  explicit Recorder(std::size_t capacity = 1u << 16) : capacity_(capacity) {}

  void on_span_begin(std::string_view name, Cycle cycle,
                     std::uint64_t messages) override;
  void on_span_end(Cycle cycle, std::uint64_t messages) override;

  const std::vector<SpanRecord>& records() const { return records_; }
  /// Spans discarded once the capacity cap was hit.
  std::uint64_t dropped() const { return dropped_; }
  /// Maximum nesting depth observed (0 when no spans were recorded).
  std::size_t max_depth() const { return max_depth_; }

  /// True when every recorded span was closed and the stack drained — i.e.
  /// the begin/end stream was balanced and properly nested.
  bool well_formed() const;

  /// Per-name aggregates in first-appearance order.
  std::vector<SpanSummary> summarize() const;

  /// Cross-checks the records against the run's PhaseStats: every phase
  /// that shares its name with recorded spans must agree exactly on cycles
  /// and messages with the per-name span aggregate, and the stream must be
  /// well-formed. Returns one line per discrepancy; empty means reconciled.
  std::vector<std::string> reconcile(const RunStats& stats) const;

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::size_t max_depth_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> stack_;  ///< open record indices (kNoParent = dropped)
};

/// The RAII span protocol code creates. Records only on processor 0 (and
/// only when a sink is attached). A step awaiter holds its spans as
/// members: default-constructed, opened when it begins and closed when it
/// ends — or, if the run stops first, when it is destroyed.
class Span {
 public:
  Span() = default;
  Span(Proc& self, std::string_view name) { open(self, name); }
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Begins the span now; it must not be open.
  void open(Proc& self, std::string_view name) {
    if (self.id() == 0) {
      proc_ = &self;
      self.span_begin(name);
    }
  }
  /// Ends the span now, if it is open.
  void close() {
    if (proc_ != nullptr) std::exchange(proc_, nullptr)->span_end();
  }

 private:
  Proc* proc_ = nullptr;
};

}  // namespace mcb::obs
