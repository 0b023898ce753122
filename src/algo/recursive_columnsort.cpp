#include "algo/recursive_columnsort.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "algo/common.hpp"
#include "algo/ranksort.hpp"
#include "sched/edge_coloring.hpp"
#include "sched/permutation.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

constexpr std::array<sched::Transform, 4> kTransforms = {
    sched::Transform::kTranspose, sched::Transform::kUndiagonalize,
    sched::Transform::kUpShift, sched::Transform::kDownShift};

/// One cross-processor element move of a segmented transformation.
/// Positions are node-local column-major indices; the channel is node-local
/// (segment channel of the source element).
struct TEdge {
  std::uint32_t src_pos = 0;
  std::uint32_t dst_pos = 0;
  std::uint32_t channel = 0;
};

/// Plan-tree node. All k' children of a split are isomorphic, so one child
/// plan is shared.
struct RNode {
  enum class Kind { kLocal, kRankSort, kSplit };
  Kind kind = Kind::kLocal;
  std::size_t n_c = 0;    ///< elements sorted by this node
  std::size_t q = 0;      ///< processors
  std::size_t kc = 0;     ///< channels
  std::size_t chunk = 0;  ///< elements per processor (n_c / q)
  Cycle cost = 0;         ///< deterministic cycle count of this node

  // kRankSort only: every member's element count (chunk).
  std::vector<std::size_t> sizes;

  // kSplit only:
  std::size_t ksplit = 0;  ///< k' columns
  std::unique_ptr<RNode> child;
  /// trounds[t]: rounds of transformation t; each round's edges are
  /// pairwise channel- and receiver-disjoint.
  std::array<std::vector<std::vector<TEdge>>, 4> trounds;
  std::array<std::vector<std::uint32_t>, 4> tables;
};

std::size_t owner_of(const RNode& node, std::size_t pos) {
  return pos / node.chunk;
}

void build_transform_rounds(RNode& node) {
  const std::size_t len = node.n_c / node.ksplit;     // column length
  const std::size_t segs = node.kc / node.ksplit;     // segments per column
  const std::size_t seg_len = len / segs;
  for (std::size_t t = 0; t < kTransforms.size(); ++t) {
    node.tables[t] = sched::permutation_table(kTransforms[t], len,
                                              node.ksplit);
    const auto& table = node.tables[t];
    std::vector<sched::BipEdge> bip;
    std::vector<TEdge> moves;
    for (std::size_t pos = 0; pos < node.n_c; ++pos) {
      const std::size_t dst = table[pos];
      if (owner_of(node, pos) == owner_of(node, dst)) continue;
      const std::size_t col = pos / len;
      const std::size_t channel = col * segs + (pos % len) / seg_len;
      bip.push_back(sched::BipEdge{
          static_cast<std::uint32_t>(channel),
          static_cast<std::uint32_t>(owner_of(node, dst))});
      moves.push_back(TEdge{static_cast<std::uint32_t>(pos),
                            static_cast<std::uint32_t>(dst),
                            static_cast<std::uint32_t>(channel)});
    }
    const auto coloring = sched::euler_color(node.kc, node.q, bip);
    node.trounds[t].assign(coloring.num_colors, {});
    for (std::size_t e = 0; e < moves.size(); ++e) {
      node.trounds[t][coloring.colors[e]].push_back(moves[e]);
    }
    node.cost += coloring.num_colors;
  }
}

std::unique_ptr<RNode> build_rnode(std::size_t n_c, std::size_t q,
                                   std::size_t kc, std::size_t max_split,
                                   std::size_t* depth_out,
                                   std::size_t* top_split) {
  auto node = std::make_unique<RNode>();
  node->n_c = n_c;
  node->q = q;
  node->kc = kc;
  node->chunk = n_c / q;
  MCB_REQUIRE(n_c % q == 0, "recursive sort needs q | n (n_c=" << n_c
                                                               << ", q=" << q
                                                               << ")");
  if (q == 1) {
    node->kind = RNode::Kind::kLocal;
    node->cost = 0;
    return node;
  }
  if (kc == 1) {
    node->kind = RNode::Kind::kRankSort;
    node->cost = static_cast<Cycle>(2 * n_c);
    node->sizes.assign(q, node->chunk);
    return node;
  }

  // Greedy largest feasible split factor.
  const std::size_t cap = max_split == 0 ? kc : std::min(kc, max_split);
  std::size_t ks = 0;
  for (std::size_t cand = cap; cand >= 2; --cand) {
    if (q % cand != 0 || kc % cand != 0) continue;
    if (n_c % (cand * cand) != 0) continue;           // cand | column length
    const std::size_t len = n_c / cand;
    if (len < cand * (cand - 1)) continue;            // Columnsort rule
    const std::size_t segs = kc / cand;
    if (len % segs != 0) continue;                    // segments tile columns
    if (q % kc != 0) continue;                        // segment/processor align
    ks = cand;
    break;
  }
  if (ks == 0) {
    // No feasible split: sort the whole node on one channel. Correct, if
    // wasteful — only reachable for degenerate dimensions.
    node->kind = RNode::Kind::kRankSort;
    node->cost = static_cast<Cycle>(2 * n_c);
    node->sizes.assign(q, node->chunk);
    return node;
  }

  node->kind = RNode::Kind::kSplit;
  node->ksplit = ks;
  if (top_split != nullptr && *top_split == 0) *top_split = ks;
  std::size_t child_depth = 0;
  node->child = build_rnode(n_c / ks, q / ks, kc / ks, max_split,
                            &child_depth, nullptr);
  if (depth_out != nullptr) *depth_out = child_depth + 1;
  build_transform_rounds(*node);
  node->cost += 4 * node->child->cost;  // phases 1, 3, 5, 7
  return node;
}

/// One segmented transformation from this processor's view. The rounds
/// are fixed before any data moves, so it is one window, with this step
/// awaiter as its source.
class [[nodiscard]] SegTransform : public Proc::StepAwaiter<SegTransform> {
 public:
  SegTransform(Proc& self, const RNode& node, std::size_t t,
               std::size_t my_idx, ChannelId first_ch,
               std::vector<Word>& mine)
      : StepAwaiter(self),
        node_(&node),
        rounds_(&node.trounds[t]),
        mine_(&mine),
        next_(mine.size()),
        my_idx_(my_idx),
        base_(my_idx * node.chunk),
        first_ch_(first_ch) {
    const auto& table = node.tables[t];
    self.note_aux(2 * mine.size());
    // Moves that stay inside this processor are local copies.
    for (std::size_t pos = base_; pos < base_ + node.chunk; ++pos) {
      const std::size_t dst = table[pos];
      if (owner_of(node, dst) == my_idx) {
        next_[dst - base_] = mine[pos - base_];
      }
    }
  }

  bool begin(Proc& self) {
    if (rounds_->empty()) return step(self);
    self.act_window(*this, 0, rounds_->size(), 0);
    return true;
  }
  bool step(Proc&) {
    mine_->swap(next_);
    return false;
  }

  Beat fill(std::size_t r) const {
    Beat b;
    for (const auto& e : (*rounds_)[r]) {
      if (owner_of(*node_, e.src_pos) == my_idx_) {
        b.msg = Message::of((*mine_)[e.src_pos - base_],
                            static_cast<Word>(e.dst_pos));
        b.write = static_cast<ChannelId>(first_ch_ + e.channel);
      }
      if (owner_of(*node_, e.dst_pos) == my_idx_) {
        b.read = static_cast<ChannelId>(first_ch_ + e.channel);
      }
    }
    return b;
  }

  void place(std::size_t r, const Proc::ReadResult& got) {
    std::size_t expect_dst = SIZE_MAX;
    for (const auto& e : (*rounds_)[r]) {
      if (owner_of(*node_, e.dst_pos) == my_idx_) expect_dst = e.dst_pos;
    }
    MCB_CHECK(got.has_value(), "segmented transfer missing");
    MCB_CHECK(static_cast<std::size_t>(got->at(1)) == expect_dst,
              "segmented transfer routed to the wrong slot");
    next_[expect_dst - base_] = got->at(0);
  }

 private:
  const RNode* node_;
  const std::vector<std::vector<TEdge>>* rounds_;
  std::vector<Word>* mine_;
  std::vector<Word> next_;
  std::size_t my_idx_;
  std::size_t base_;
  ChannelId first_ch_;
};

/// The recursive sort from one processor's view, as one step awaiter. All
/// k' children of a split are isomorphic and a processor lies in exactly
/// one of them, so its path down the plan tree is one node per level:
/// `path_` holds the nodes it is inside, innermost last, each with the
/// phase to start next, and `sub_` the action in flight (a Rank-Sort, a
/// transformation, or nothing while phase 7's idle child sleeps).
class [[nodiscard]] RecursiveSort : public Proc::StepAwaiter<RecursiveSort> {
 public:
  RecursiveSort(Proc& self, const RNode& root, std::vector<Word>& mine)
      : StepAwaiter(self), mine_(&mine), path_{Level{&root, 0, 0, 0}} {}

  bool begin(Proc& self) { return walk(self); }
  bool step(Proc& self) {
    if (auto* rs = std::get_if<RankSort>(&sub_)) {
      if (rs->step(self)) return true;
    } else if (auto* tr = std::get_if<SegTransform>(&sub_)) {
      tr->step(self);
    }
    return walk(self);
  }

 private:
  struct Level {
    const RNode* node;
    ProcId first_proc;   ///< the node's first processor
    ChannelId first_ch;  ///< and channel
    std::uint8_t phase;  ///< next to start: 0..7 for phases 1..8 of a split
  };

  // Starts the next step of the innermost node, descending into children
  // and leaving finished nodes, until an action opens (true) or the root
  // is done (false).
  bool walk(Proc& self) {
    while (!path_.empty()) {
      Level& lv = path_.back();
      const RNode& node = *lv.node;
      const std::size_t phase = lv.phase++;
      if (phase == (node.kind == RNode::Kind::kSplit ? 8 : 1)) {
        path_.pop_back();
        continue;
      }
      if (node.kind == RNode::Kind::kLocal) {
        seq::sort_descending(*mine_);
        continue;
      }
      if (node.kind == RNode::Kind::kRankSort) {
        const GroupSpec grp{lv.first_proc, node.q, lv.first_ch};
        if (sub_.emplace<RankSort>(self, grp, node.sizes, *mine_).begin(self)) {
          return true;
        }
        continue;
      }
      const std::size_t my_idx = self.id() - lv.first_proc;
      if (phase % 2 == 1) {  // phases 2, 4, 6, 8
        if (sub_.emplace<SegTransform>(self, node, phase / 2, my_idx,
                                       lv.first_ch, *mine_)
                .begin(self)) {
          return true;
        }
        continue;
      }
      const RNode& child = *node.child;  // phases 1, 3, 5, 7
      const std::size_t my_col = my_idx / child.q;
      if (phase == 6 && my_col == 0) {
        // Column 1 skips phase 7, idling through it in lockstep.
        if (child.cost == 0) continue;
        sub_.emplace<std::monostate>();
        self.act_sleep(child.cost);
        return true;
      }
      path_.push_back(
          Level{&child, static_cast<ProcId>(lv.first_proc + my_col * child.q),
                static_cast<ChannelId>(lv.first_ch + my_col * child.kc), 0});
    }
    return false;
  }

  std::vector<Word>* mine_;
  std::vector<Level> path_;
  std::variant<std::monostate, RankSort, SegTransform> sub_;
};

ProcMain recursive_program(Proc& self, const RNode& root,
                           const std::vector<Word>& input,
                           std::vector<Word>& output) {
  if (self.id() == 0) self.mark_phase("recursive-columnsort");
  output = input;
  co_await RecursiveSort(self, root, output);
}

}  // namespace

RecursiveSortResult recursive_columnsort(
    const SimConfig& cfg, const std::vector<std::vector<Word>>& inputs,
    RecursiveSortOptions opts, TraceSink* sink) {
  cfg.validate();
  MCB_REQUIRE(inputs.size() == cfg.p, "inputs for " << inputs.size()
                                                    << " processors, p="
                                                    << cfg.p);
  const std::size_t ni = inputs.front().size();
  MCB_REQUIRE(ni > 0, "every processor needs at least one element");
  for (const auto& in : inputs) {
    MCB_REQUIRE(in.size() == ni, "distribution is not even");
  }

  RecursiveSortResult result;
  std::size_t top_split = 0;
  auto root = build_rnode(cfg.p * ni, cfg.p, cfg.k, opts.max_split,
                          &result.depth, &top_split);
  result.top_columns = top_split == 0 ? 1 : top_split;
  result.run = run_network(
      cfg, inputs,
      [&root](Proc& self, const std::vector<Word>& in,
              std::vector<Word>& out) {
        return recursive_program(self, *root, in, out);
      },
      sink);
  return result;
}

}  // namespace mcb::algo
