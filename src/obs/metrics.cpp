#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace mcb::obs {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

double Histogram::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (dirty_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
    ++sort_passes_;
  }
  return sorted_[nearest_rank(sorted_.size(), q) - 1];
}

double Histogram::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

}  // namespace mcb::obs
