// The serving layer's query model: a deterministic, seedable stream of
// rank/top-k/churn operations over a resident sharded dataset.
//
// Everything here is host-side bookkeeping — queries and churn mutations
// are generated and applied outside the simulated network; only the batched
// selection runs (serve/server.hpp) spend simulated cycles. Determinism is
// the design constraint throughout: the stream is a pure function of
// (seed, class mix, dataset size), so a serving session replays identically
// on either engine, and the reports can be compared byte-for-byte
// (tools/ci.sh does exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcb/types.hpp"
#include "util/random.hpp"

namespace mcb::serve {

/// Nearest-rank rank for the top `fraction` of `n` elements:
/// max(1, ceil(n * fraction)), clamped to n. The same convention as
/// obs::Histogram::quantile (ceil(q * count), floored at rank 1), so a
/// "p99" rank query and the p99 of a latency histogram mean the same
/// element. Callers that truncate instead (size_t(n * f)) are off by one
/// whenever n * f is not integral — the bug examples/topk_query.cpp had.
std::size_t quantile_rank(std::size_t n, double fraction);

/// The three operation kinds a serving class can issue.
enum class OpKind {
  kRankSelect,  ///< rank_select(d): the d-th largest resident value
  kTopK,        ///< top_k(m): the m-th largest — the top-m admission cutoff
  kChurn,       ///< churn: insert one fresh value, delete one resident value
};

/// One tenant: a named query class with a stream weight. The stream draws
/// classes proportionally to weight, so "rank:4,topk:2,churn:1" yields a
/// 4:2:1 traffic mix.
struct ClassSpec {
  std::string name;
  OpKind kind = OpKind::kRankSelect;
  std::uint64_t weight = 1;
};

/// Parses a --classes flag: comma-separated `kind:weight` items with kind
/// in {rank, topk, churn} and weight a positive integer. Throws
/// std::invalid_argument on malformed input.
std::vector<ClassSpec> parse_classes(const std::string& spec);

/// One query drawn from the stream.
struct Query {
  std::size_t cls = 0;  ///< index into the class list
  OpKind kind = OpKind::kRankSelect;
  /// kRankSelect: the tail fraction drawn from the quantile menu (the rank
  /// is quantile_rank(current n, fraction) at admission time, so churn
  /// between draws shifts it correctly). kTopK/kChurn: unused.
  double fraction = 0.0;
  /// kTopK: the requested m. kRankSelect/kChurn: unused.
  std::size_t top_m = 0;
};

/// The resident dataset, sharded one slice per processor. Values are
/// distinct (the selection collectives require it) and every shard stays
/// non-empty across churn. Mutations are deterministic functions of the
/// construction seed and the call sequence.
class Dataset {
 public:
  /// n distinct values split evenly over p shards (requires p | n),
  /// generated from `seed` exactly like `mcbsim sort/select` workloads.
  Dataset(std::size_t n, std::size_t p, std::uint64_t seed);

  const std::vector<std::vector<Word>>& shards() const { return shards_; }
  std::size_t size() const { return n_; }

  /// One churn step: inserts one fresh value (distinct from everything ever
  /// resident) into the next shard round-robin, then deletes one resident
  /// value at a seeded pseudorandom position, skipping shards that would go
  /// empty. Net size change: zero.
  void churn();

  /// Host-side ground truth: the d-th largest resident value (1-based).
  /// O(n) scratch copy + nth_element; for verification, not serving.
  Word nth_largest(std::size_t d) const;

 private:
  std::vector<std::vector<Word>> shards_;
  std::size_t n_ = 0;
  std::size_t insert_cursor_ = 0;  ///< round-robin shard for inserts
  Word next_fresh_ = 0;            ///< strictly above every value ever seen
  util::Xoshiro256StarStar rng_;
};

/// The deterministic query stream: class draws are weighted by ClassSpec,
/// rank queries draw their tail fraction from a fixed quantile menu
/// (p50/p90/p95/p99/p999 — the clustered tail mix a latency dashboard
/// issues), top-k queries draw m from a small power-of-two menu.
class QueryStream {
 public:
  QueryStream(std::vector<ClassSpec> classes, std::uint64_t seed);

  const std::vector<ClassSpec>& classes() const { return classes_; }
  Query next();

 private:
  std::vector<ClassSpec> classes_;
  std::uint64_t total_weight_ = 0;
  util::Xoshiro256StarStar rng_;
};

}  // namespace mcb::serve
