#include "util/random.hpp"

#include "util/check.hpp"

namespace mcb::util {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) {
    lane = splitmix64(sm);
    sm += 0x9e3779b97f4a7c15ull;
  }
  // All-zero state is the one invalid state; splitmix64 cannot produce four
  // zero outputs from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Xoshiro256StarStar::uniform(std::int64_t lo, std::int64_t hi) {
  MCB_REQUIRE(lo <= hi, "uniform(" << lo << ", " << hi << ")");
  const auto range = static_cast<std::uint64_t>(hi) -
                     static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling for exact uniformity.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  // The add wraps in unsigned arithmetic: lo + offset lies in [lo, hi],
  // but the offset alone may not fit a signed word.
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   draw % range);
}

double Xoshiro256StarStar::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

}  // namespace mcb::util
