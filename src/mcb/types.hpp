// Fundamental vocabulary types of the MCB model.
#pragma once

#include <cstdint>

namespace mcb {

/// One datum / one machine word. The paper allows messages of O(log beta)
/// bits where beta is the largest value involved; a 64-bit word models that.
using Word = std::int64_t;

/// Processor index, 0-based (the paper's P_{i+1}).
using ProcId = std::uint32_t;

/// Channel index, 0-based (the paper's C_{j+1}).
using ChannelId = std::uint32_t;

/// Cycle counter.
using Cycle = std::uint64_t;

/// "No channel": a Beat that does not write, or does not read.
inline constexpr ChannelId kNoChannel = ~ChannelId{0};

}  // namespace mcb
