#include "obs/profiler.hpp"

#include <sstream>

#include "util/json.hpp"

namespace mcb::obs {

Profiler::Profiler(Clock* clock)
    : clock_(clock != nullptr ? clock : &default_clock()) {}

void Profiler::begin_run() {
  ++runs_;
  run_t0_ = clock_->now_ns();
  run_open_ = true;
}

void Profiler::end_run() {
  if (!run_open_) return;
  run_wall_ns_ += clock_->now_ns() - run_t0_;
  run_open_ = false;
}

std::string Profiler::json() const {
  std::ostringstream os;
  os << "{\"runs\":" << runs_ << ",\"run_wall_ns\":" << run_wall_ns_ << '}';
  return os.str();
}

std::string Profiler::text() const {
  std::ostringstream os;
  os << "host profile: " << runs_ << " run(s), "
     << util::json_double(static_cast<double>(run_wall_ns_) / 1e6)
     << " ms wall\n";
  return os.str();
}

}  // namespace mcb::obs
