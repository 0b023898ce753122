// Sequential sorting substrate.
//
// The paper's local sorting phases cite [Knut73]; this module provides the
// stand-in: insertion sort, heapsort, bottom-up merge sort, an introsort
// driver (quicksort with median-of-three, depth-limited into heapsort,
// insertion sort for small ranges), a merge of presorted runs, and an LSD
// radix sort (Knuth's sorting by distribution, 5.2.5) for long
// unsorted inputs whose order is that of unsigned digit words.
// Implemented from scratch so the library has no hidden dependency on
// std::sort; std algorithms appear only in tests as oracles.
//
// All comparators follow std conventions: cmp(a, b) == true iff a must
// precede b. The paper orders lists in *descending* magnitude (N[1] is the
// largest element), so descending helpers are provided as the library
// default.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "mcb/types.hpp"

namespace mcb::seq {

template <typename T, typename Cmp = std::less<T>>
void insertion_sort(std::span<T> v, Cmp cmp = {}) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T x = std::move(v[i]);
    std::size_t j = i;
    while (j > 0 && cmp(x, v[j - 1])) {
      v[j] = std::move(v[j - 1]);
      --j;
    }
    v[j] = std::move(x);
  }
}

namespace detail {

template <typename T, typename Cmp>
void sift_down(std::span<T> v, std::size_t root, std::size_t limit, Cmp cmp) {
  // Max-heap with respect to cmp: parent not cmp-before any child.
  while (true) {
    const std::size_t left = 2 * root + 1;
    if (left >= limit) return;
    std::size_t best = left;
    if (left + 1 < limit && cmp(v[left], v[left + 1])) best = left + 1;
    if (!cmp(v[root], v[best])) return;
    using std::swap;
    swap(v[root], v[best]);
    root = best;
  }
}

}  // namespace detail

template <typename T, typename Cmp = std::less<T>>
void heap_sort(std::span<T> v, Cmp cmp = {}) {
  const std::size_t n = v.size();
  if (n < 2) return;
  for (std::size_t i = n / 2; i-- > 0;) {
    detail::sift_down(v, i, n, cmp);
  }
  for (std::size_t end = n; end-- > 1;) {
    using std::swap;
    swap(v[0], v[end]);
    detail::sift_down(v, 0, end, cmp);
  }
}

/// Stable bottom-up merge sort; allocates an n-element buffer.
template <typename T, typename Cmp = std::less<T>>
void merge_sort(std::span<T> v, Cmp cmp = {}) {
  const std::size_t n = v.size();
  if (n < 2) return;
  std::vector<T> buf(v.begin(), v.end());
  T* src = buf.data();
  T* dst = v.data();
  bool into_v = true;
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t a = lo, b = mid, o = lo;
      while (a < mid && b < hi) {
        // !cmp(src[b], src[a]) keeps equal elements from the left: stable.
        dst[o++] = !cmp(src[b], src[a]) ? std::move(src[a++])
                                        : std::move(src[b++]);
      }
      while (a < mid) dst[o++] = std::move(src[a++]);
      while (b < hi) dst[o++] = std::move(src[b++]);
    }
    std::swap(src, dst);
    into_v = !into_v;
  }
  // After the final swap, `src` points at the fully sorted data.
  if (into_v) {
    for (std::size_t i = 0; i < n; ++i) v[i] = std::move(buf[i]);
  }
}

namespace detail {

template <typename T, typename Cmp>
const T& median3(const T& a, const T& b, const T& c, Cmp cmp) {
  if (cmp(a, b)) {
    if (cmp(b, c)) return b;
    return cmp(a, c) ? c : a;
  }
  if (cmp(a, c)) return a;
  return cmp(b, c) ? c : b;
}

template <typename T, typename Cmp>
void intro_rec(std::span<T> v, std::size_t depth, Cmp cmp) {
  constexpr std::size_t kSmall = 24;
  while (v.size() > kSmall) {
    if (depth == 0) {
      heap_sort(v, cmp);
      return;
    }
    --depth;
    const T pivot =
        median3(v[0], v[v.size() / 2], v[v.size() - 1], cmp);
    // Hoare partition.
    std::size_t i = 0, j = v.size() - 1;
    while (true) {
      while (cmp(v[i], pivot)) ++i;
      while (cmp(pivot, v[j])) --j;
      if (i >= j) break;
      using std::swap;
      swap(v[i], v[j]);
      ++i;
      --j;
    }
    // Recurse into the smaller side, loop on the larger (bounded stack).
    const std::size_t cut = j + 1;
    if (cut < v.size() - cut) {
      intro_rec(v.subspan(0, cut), depth, cmp);
      v = v.subspan(cut);
    } else {
      intro_rec(v.subspan(cut), depth, cmp);
      v = v.subspan(0, cut);
    }
  }
  insertion_sort(v, cmp);
}

}  // namespace detail

/// General-purpose sort: introsort. O(n log n) worst case, in place.
template <typename T, typename Cmp = std::less<T>>
void intro_sort(std::span<T> v, Cmp cmp = {}) {
  std::size_t depth = 0;
  for (std::size_t x = v.size(); x > 1; x /= 2) depth += 2;
  detail::intro_rec(v, depth, cmp);
}

/// Sorts v by merging its maximal runs (stretches already in cmp order)
/// when they are few, and returns false, with v untouched, when the
/// average run is shorter than kMinRunMean elements. Input that arrives as
/// a handful of sorted runs — a Columnsort column after a matrix
/// transformation holds about one per source column — then costs one scan
/// plus O(n log runs) moves. Allocates an n-element buffer when it merges;
/// stable then.
template <typename T, typename Cmp = std::less<T>>
bool merge_runs(std::span<T> v, Cmp cmp = {}) {
  constexpr std::size_t kMinRunMean = 8;
  const std::size_t n = v.size();
  // bounds: start of every run, then n.
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < n; ++i) {
    if (!cmp(v[i], v[i - 1])) continue;
    bounds.push_back(i);
    if (bounds.size() * kMinRunMean > n) return false;
  }
  if (bounds.size() == 1) return true;  // one run: already sorted
  bounds.push_back(n);
  std::vector<T> buf(n);
  T* src = v.data();
  T* dst = buf.data();
  // Each pass merges neighbouring run pairs from src into dst, halving the
  // run count; an odd last run is copied across.
  while (bounds.size() > 2) {
    std::size_t out = 0;
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::size_t a = bounds[r], b = bounds[r + 1], o = bounds[r];
      const std::size_t mid = bounds[r + 1], hi = bounds[r + 2];
      while (a < mid && b < hi) {
        // !cmp(src[b], src[a]) keeps equal elements from the left: stable.
        dst[o++] = !cmp(src[b], src[a]) ? std::move(src[a++])
                                        : std::move(src[b++]);
      }
      while (a < mid) dst[o++] = std::move(src[a++]);
      while (b < hi) dst[o++] = std::move(src[b++]);
      bounds[out++] = bounds[r];
    }
    if (r + 1 < bounds.size()) {
      for (std::size_t i = bounds[r]; i < n; ++i) dst[i] = std::move(src[i]);
      bounds[out++] = bounds[r];
    }
    bounds[out++] = n;
    bounds.resize(out);
    std::swap(src, dst);
  }
  if (src != v.data()) {
    for (std::size_t i = 0; i < n; ++i) v[i] = std::move(src[i]);
  }
  return true;
}

/// merge_runs, falling back to intro_sort when the runs are many.
template <typename T, typename Cmp = std::less<T>>
void sort_by_runs(std::span<T> v, Cmp cmp = {}) {
  if (!merge_runs(v, cmp)) intro_sort(v, cmp);
}

/// LSD radix sort (Knuth 5.2.5): orders v ascending by digits(x), a
/// std::array of std::uint64_t words compared most significant word
/// first. One scan finds the bytes in which some element differs from the
/// first, a second counts every such byte's values, then each varying
/// byte, least significant first, takes one stable distribution pass
/// between v and an n-element buffer. Bytes equal across v cost nothing,
/// so the passes are as many as the bytes the values actually use. Stable;
/// O(n · varying bytes + 256 · varying bytes) time.
template <typename T, typename Digits>
void radix_sort(std::span<T> v, Digits digits) {
  using Key = decltype(digits(v[0]));
  constexpr std::size_t kWords = std::tuple_size_v<Key>;
  const std::size_t n = v.size();
  if (n < 2) return;
  const Key first = digits(v[0]);
  Key differ{};
  for (const T& x : v) {
    const Key d = digits(x);
    for (std::size_t w = 0; w < kWords; ++w) differ[w] |= d[w] ^ first[w];
  }
  // The varying bytes, least significant first, as (word, shift).
  std::array<std::pair<std::size_t, unsigned>, 8 * kWords> pass{};
  std::size_t passes = 0;
  for (std::size_t w = kWords; w-- > 0;) {
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if ((differ[w] >> shift & 0xff) != 0) pass[passes++] = {w, shift};
    }
  }
  if (passes == 0) return;  // all equal
  std::vector<std::array<std::size_t, 256>> start(passes);
  for (const T& x : v) {
    const Key d = digits(x);
    for (std::size_t p = 0; p < passes; ++p) {
      ++start[p][d[pass[p].first] >> pass[p].second & 0xff];
    }
  }
  for (auto& count : start) {  // counts become first output positions
    std::size_t at = 0;
    for (std::size_t& c : count) at += std::exchange(c, at);
  }
  std::vector<T> buf(n);
  T* src = v.data();
  T* dst = buf.data();
  for (std::size_t p = 0; p < passes; ++p) {
    auto& next = start[p];
    const auto [w, shift] = pass[p];
    for (std::size_t i = 0; i < n; ++i) {
      dst[next[digits(src[i])[w] >> shift & 0xff]++] = std::move(src[i]);
    }
    std::swap(src, dst);
  }
  if (src != v.data()) {
    for (std::size_t i = 0; i < n; ++i) v[i] = std::move(src[i]);
  }
}

// --- Word conveniences in the paper's (descending) convention --------------

void sort_descending(std::span<Word> v);
void sort_ascending(std::span<Word> v);
bool is_sorted_descending(std::span<const Word> v);

}  // namespace mcb::seq
