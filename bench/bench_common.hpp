// Shared helpers for the experiment harnesses. Each bench binary prints
// measured-vs-predicted tables for one experiment of DESIGN.md §4.
// bench_simspeed, bench_sweep and bench_serve also time the simulator and
// record their gates in a BENCH_*.json artifact.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "harness/sweep.hpp"
#include "mcb/mcb.hpp"
#include "util/table.hpp"
#include "util/workload.hpp"

namespace mcb::bench {

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline util::Table::Cell ratio(double measured, double predicted) {
  return util::Table::num(predicted == 0 ? 0.0 : measured / predicted, 2);
}

/// True when the per-processor outputs concatenate to one globally sorted
/// sequence. The library's sort contract is descending (algo/sort.hpp), but
/// both orders are accepted explicitly so the guard keeps working if a
/// future algorithm emits ascending output. Empty lists (anywhere, including
/// the first processor) are handled: comparison starts at the first element
/// actually present, never at a sentinel.
inline bool is_sorted_output(const std::vector<std::vector<Word>>& outputs) {
  std::optional<Word> prev;
  bool nonincreasing = true;
  bool nondecreasing = true;
  for (const auto& out : outputs) {
    for (Word w : out) {
      if (prev) {
        if (w > *prev) nonincreasing = false;
        if (w < *prev) nondecreasing = false;
      }
      prev = w;
    }
  }
  return nonincreasing || nondecreasing;
}

/// True when `outputs` holds exactly the same multiset of values as
/// `inputs` (order-insensitive content fingerprint — count, sum and hashed
/// mixes). Ordering alone is not enough for a bench guard: a sort that
/// drops or duplicates elements can still emit a perfectly ordered
/// sequence.
inline bool is_permutation_output(
    const std::vector<std::vector<Word>>& outputs,
    const std::vector<std::vector<Word>>& inputs) {
  return util::multiset_fingerprint(outputs) ==
         util::multiset_fingerprint(inputs);
}

/// Sorted-output spot check: aborts the bench on wrong results so a broken
/// schedule can never masquerade as a fast one.
inline void check_sorted(const std::vector<std::vector<Word>>& outputs) {
  if (!is_sorted_output(outputs)) {
    std::cerr << "BENCH FAILURE: output not sorted\n";
    std::abort();
  }
}

/// Full bench guard: output must be sorted AND a permutation of the input
/// workload. Use this overload whenever the input is at hand.
inline void check_sorted(const std::vector<std::vector<Word>>& outputs,
                         const std::vector<std::vector<Word>>& inputs) {
  check_sorted(outputs);
  if (!is_permutation_output(outputs, inputs)) {
    std::cerr << "BENCH FAILURE: output is not a permutation of the input\n";
    std::abort();
  }
}

/// Aborts the bench if any trial of a harness sweep failed its built-in
/// verification (every trial self-checks: sorts must emit a descending
/// permutation, selections the true median).
inline void check_sweep_ok(const harness::SweepRun& run) {
  bool ok = true;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    if (!run.results[i].ok()) {
      std::cerr << "BENCH FAILURE: trial " << i << ": "
                << run.results[i].error << "\n";
      ok = false;
    }
  }
  if (!ok) std::abort();
}

}  // namespace mcb::bench
