// The exact-quantile histogram and the nearest-rank rule every quantile in
// the project uses.
//
// Histograms are exact, not sketched: the consumers (serve's per-class
// latencies, its host batch walls) record at most one value per query or
// batch, so storing them and computing nearest-rank p50/p95/p99 plus the
// true max costs less than a sketch would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcb::obs {

/// The nearest-rank rule: the 1-based rank of the q-quantile of n sorted
/// values, ceil(q * n) floored at 1 (q = 0 still names an element) and
/// capped at n (fp round-up at q = 1). n must be positive.
/// Histogram::quantile, harness::summarize and serve::quantile_rank all
/// use it, so a "p99" means the same element everywhere.
std::size_t nearest_rank(std::size_t n, double q);

/// Exact-quantile histogram (nearest-rank). Quantile queries sort once and
/// serve every subsequent query from the cached order until the next
/// record(): the serving layer records one sample per query and renders
/// several quantiles per report, which sorting per call made quadratic.
class Histogram {
 public:
  void record(double v) {
    values_.push_back(v);
    dirty_ = true;
  }
  std::uint64_t count() const { return values_.size(); }
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const;
  /// Nearest-rank quantile (nearest_rank above); 0 when empty.
  double quantile(double q) const;
  /// Times the cache actually sorted — telemetry for the sort-once
  /// contract (tests assert it stays at 1 across repeated quantiles).
  std::uint64_t sort_passes() const { return sort_passes_; }

 private:
  std::vector<double> values_;
  // Cache shared by the const quantile accessors, rebuilt only after new
  // samples arrive.
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = false;
  mutable std::uint64_t sort_passes_ = 0;
};

}  // namespace mcb::obs
