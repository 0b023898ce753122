// Distributed selection by rank — Section 8.
//
// Identifies N[d], the d-th largest of n elements distributed arbitrarily
// over the p processors, by repeated filtering:
//
//   filtering phase (repeated while more than m* candidates remain)
//     1. each processor computes the median med_i of its local candidates
//        (BFPRT, free local computation);
//     2. the (med_i, m_i) pairs are sorted descending by median with the
//        even Columnsort collective (one pair per processor);
//     3. Partial-Sums over the sorted counts locates the *weighted median*
//        med_{i*} — the smallest prefix covering half the candidates — and
//        P_{i*} broadcasts it;
//     4. Partial-Sums counts the candidates >= med_{i*}; depending on how
//        that count m_s compares to d, either med_{i*} is the answer, or
//        all candidates <= med_{i*} (case m_s > d) or >= med_{i*}
//        (case m_s < d, with d reduced by m_s) are purged.
//     Each phase purges at least ~1/4 of the candidates (Figure 2).
//
//   termination phase: the at most m* = max(p/k, 1) survivors are collected
//     into P_1 (p/k-slot schedule driven by Partial-Sums prefixes), which
//     selects locally and broadcasts the answer.
//
// Complexity: O((p/k) log(kn/p)) cycles and O(p log(kn/p)) messages, tight
// by Corollary 7 for d = Theta(n) and p >= k^2.
//
// One protocol serves a single rank and a batch (algo/multi_select.hpp):
// select_rank(d) is select_ranks({d}), and both run the program in
// algo/selection.cpp. P_1 marks the phases "setup", "filter" (every round,
// accumulated) and "terminate", each with a span of the same name. A run
// always reports exactly one "terminate" phase, last; it is zero-length
// when rank d was med_{i*} itself, found inside a filtering phase.
//
// The paper assumes distinct elements w.l.o.g.; this implementation
// requires them (callers can lexicographically extend values as in
// Section 3 if needed).
#pragma once

#include <cstddef>
#include <vector>

#include "mcb/sim_config.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"
#include "mcb/types.hpp"

namespace mcb::algo {

struct SelectionOptions {
  /// Candidate threshold below which the termination phase collects the
  /// survivors centrally; 0 = the paper's choice max(p/k, 1).
  std::size_t threshold = 0;
};

struct SelectionResult {
  Word value = 0;                 ///< the d-th largest element
  std::size_t filter_phases = 0;  ///< filtering rounds executed
  /// Candidates alive entering each filtering phase — the quantity Figure 2
  /// illustrates. The purge guarantee makes each entry at most ~3/4 of its
  /// predecessor.
  std::vector<std::size_t> candidates_per_phase;
  RunStats stats;
};

/// Selects the d-th largest element (1-based, d <= n). Every processor must
/// hold at least one element; all values distinct.
SelectionResult select_rank(const SimConfig& cfg,
                            const std::vector<std::vector<Word>>& inputs,
                            std::size_t d, SelectionOptions opts = {},
                            TraceSink* sink = nullptr);

/// Convenience: the median, N[ceil(n/2)].
SelectionResult select_median(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs,
                              SelectionOptions opts = {},
                              TraceSink* sink = nullptr);

}  // namespace mcb::algo
