#include "serve/query.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/workload.hpp"

namespace mcb::serve {

namespace {

/// Tail fractions a rank class draws from: the p50/p90/p95/p99/p999 menu of
/// a latency dashboard. Clustered tails are the realistic serving mix —
/// and the one batched selection amortizes best, since neighbouring ranks
/// share their filtering prefix (algo/multi_select.hpp).
constexpr double kRankMenu[] = {0.50, 0.10, 0.05, 0.01, 0.001};

/// Top-k menu: admission cutoffs a feed/aggregator asks for.
constexpr std::size_t kTopKMenu[] = {1, 8, 64};

}  // namespace

std::size_t quantile_rank(std::size_t n, double fraction) {
  MCB_REQUIRE(n > 0, "quantile_rank over an empty set");
  MCB_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "fraction " << fraction << " outside [0, 1]");
  return obs::nearest_rank(n, fraction);
}

std::vector<ClassSpec> parse_classes(const std::string& spec) {
  std::vector<ClassSpec> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    auto end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const auto colon = item.find(':');
    const std::string kind_name = item.substr(0, colon);
    ClassSpec cls;
    cls.name = kind_name;
    if (kind_name == "rank") {
      cls.kind = OpKind::kRankSelect;
    } else if (kind_name == "topk") {
      cls.kind = OpKind::kTopK;
    } else if (kind_name == "churn") {
      cls.kind = OpKind::kChurn;
    } else {
      throw std::invalid_argument("unknown query class '" + kind_name +
                                  "' (rank|topk|churn)");
    }
    if (colon != std::string::npos) {
      const std::string w = item.substr(colon + 1);
      if (w.empty() || w.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("malformed class weight in '" + item +
                                    "' (kind:weight, digits only)");
      }
      cls.weight = std::stoull(w);
      if (cls.weight == 0) {
        throw std::invalid_argument("class weight 0 in '" + item +
                                    "' (omit the class instead)");
      }
    }
    out.push_back(std::move(cls));
  }
  if (out.empty()) {
    throw std::invalid_argument("empty class list '" + spec + "'");
  }
  return out;
}

Dataset::Dataset(std::size_t n, std::size_t p, std::uint64_t seed)
    : rng_(util::splitmix64(seed) ^ 0xda7a5e7ull) {
  auto w = util::make_workload(n, p, util::Shape::kEven, seed);
  shards_ = std::move(w.inputs);
  n_ = n;
  Word max_seen = std::numeric_limits<Word>::min();
  for (const auto& shard : shards_) {
    for (Word v : shard) max_seen = std::max(max_seen, v);
  }
  next_fresh_ = max_seen + 1;
}

void Dataset::churn() {
  // Insert: fresh values are drawn from a strictly increasing counter above
  // everything ever resident, so distinctness is free. Round-robin target
  // shard keeps the distribution even without consulting sizes.
  shards_[insert_cursor_].push_back(next_fresh_++);
  insert_cursor_ = (insert_cursor_ + 1) % shards_.size();
  ++n_;

  // Delete: a seeded draw picks the victim shard; shards that would go
  // empty are skipped (the selection collectives require one element per
  // processor). Some shard has >= 2 elements whenever n > p, which the
  // insert above guarantees.
  auto s = static_cast<std::size_t>(
      rng_.uniform(0, static_cast<std::int64_t>(shards_.size()) - 1));
  while (shards_[s].size() <= 1) s = (s + 1) % shards_.size();
  auto& shard = shards_[s];
  const auto victim = static_cast<std::size_t>(
      rng_.uniform(0, static_cast<std::int64_t>(shard.size()) - 1));
  shard[victim] = shard.back();
  shard.pop_back();
  --n_;
}

Word Dataset::nth_largest(std::size_t d) const {
  MCB_REQUIRE(d >= 1 && d <= n_, "rank " << d << " of " << n_);
  std::vector<Word> all;
  all.reserve(n_);
  for (const auto& shard : shards_) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(d - 1),
                   all.end(), std::greater<Word>{});
  return all[d - 1];
}

QueryStream::QueryStream(std::vector<ClassSpec> classes, std::uint64_t seed)
    : classes_(std::move(classes)),
      rng_(util::splitmix64(seed) ^ 0x5e6e5e6eull) {
  MCB_REQUIRE(!classes_.empty(), "query stream needs at least one class");
  for (const auto& c : classes_) total_weight_ += c.weight;
}

Query QueryStream::next() {
  auto draw = static_cast<std::uint64_t>(
      rng_.uniform(0, static_cast<std::int64_t>(total_weight_) - 1));
  std::size_t cls = 0;
  while (draw >= classes_[cls].weight) {
    draw -= classes_[cls].weight;
    ++cls;
  }
  Query q;
  q.cls = cls;
  q.kind = classes_[cls].kind;
  switch (q.kind) {
    case OpKind::kRankSelect:
      q.fraction = kRankMenu[static_cast<std::size_t>(rng_.uniform(
          0, static_cast<std::int64_t>(std::size(kRankMenu)) - 1))];
      break;
    case OpKind::kTopK:
      q.top_m = kTopKMenu[static_cast<std::size_t>(rng_.uniform(
          0, static_cast<std::int64_t>(std::size(kTopKMenu)) - 1))];
      break;
    case OpKind::kChurn:
      break;
  }
  return q;
}

}  // namespace mcb::serve
