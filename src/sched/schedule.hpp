// Collision-free broadcast schedules for the Columnsort transformations.
//
// A TransferPlan turns one matrix transformation (m x k, column c owned by
// the processor driving channel c) into a sequence of rounds. In each round
// every column broadcasts at most one element on its own channel and reads
// at most one other channel — by construction no two writers share a channel,
// so the schedule is collision-free, and the number of rounds is the König
// bound R <= m.
//
// The plan is deterministic and derivable from (transform, m, k) alone; in a
// real MCB every processor would compute it locally (local computation is
// free in the model). The simulator computes it once and shares it, which
// changes nothing observable.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/edge_coloring.hpp"
#include "sched/permutation.hpp"

namespace mcb::sched {

/// Sentinel for "no send / no receive this round".
inline constexpr std::uint32_t kIdle = std::numeric_limits<std::uint32_t>::max();

/// The rounds are stored flat, round-major: entry r * k + c belongs to
/// round r and column c.
struct TransferPlan {
  Transform transform{};
  std::size_t m = 0;
  std::size_t k = 0;
  /// dst[r * k + c]: destination column of column c's broadcast in round
  /// r, or kIdle. Never c itself (intra-column moves are local, not sent).
  std::vector<std::uint32_t> dst;
  /// src[r * k + c']: which column broadcasts to c' in round r, or kIdle.
  /// Inverse view of dst, precomputed for receivers.
  std::vector<std::uint32_t> src;

  std::size_t cycles() const { return k == 0 ? 0 : dst.size() / k; }
  std::uint32_t dst_of(std::size_t round, std::size_t c) const {
    return dst[round * k + c];
  }
  std::uint32_t src_of(std::size_t round, std::size_t c) const {
    return src[round * k + c];
  }
  /// Total broadcasts the plan performs (= cross-column element moves).
  std::uint64_t messages() const;
};

/// Builds the schedule for one transformation. The permutation table can be
/// passed in when the caller already has it (it is also needed to route
/// element payloads); if null it is computed internally.
TransferPlan plan_transform(Transform t, std::size_t m, std::size_t k,
                            const std::vector<std::uint32_t>* table = nullptr);

/// Validates plan invariants: per round, non-idle destinations are distinct,
/// src is the inverse of dst, and per column pair the number of scheduled
/// sends equals the transformation's cross-column element count. Used by
/// tests and debug assertions.
bool plan_is_valid(const TransferPlan& plan,
                   const std::vector<std::uint32_t>& table);

}  // namespace mcb::sched
