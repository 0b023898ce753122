#include "sched/schedule.hpp"

#include "util/check.hpp"

namespace mcb::sched {

std::uint64_t TransferPlan::messages() const {
  std::uint64_t total = 0;
  for (auto d : dst) {
    if (d != kIdle) ++total;
  }
  return total;
}

TransferPlan plan_transform(Transform t, std::size_t m, std::size_t k,
                            const std::vector<std::uint32_t>* table_in) {
  MCB_REQUIRE(m >= 1 && k >= 1, "m=" << m << " k=" << k);
  std::vector<std::uint32_t> local_table;
  if (table_in == nullptr) {
    local_table = permutation_table(t, m, k);
    table_in = &local_table;
  }
  const auto& table = *table_in;

  // Cross-column transfer counts (intra-column moves are local).
  CountMatrix counts(k, std::vector<std::uint64_t>(k, 0));
  for (std::size_t ell = 0; ell < m * k; ++ell) {
    const std::size_t c = ell / m;
    const std::size_t cd = table[ell] / m;
    if (c != cd) ++counts[c][cd];
  }

  const auto dummy = pad_to_regular(counts);
  CountMatrix padded = counts;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) padded[i][j] += dummy[i][j];
  }

  TransferPlan plan;
  plan.transform = t;
  plan.m = m;
  plan.k = k;
  if (max_degree(counts) == 0) return plan;  // fully intra-column

  // Emit rounds from the decomposition. For each (c, c') pair the first
  // counts[c][c'] occurrences across the round sequence are real sends and
  // the rest are padding (idle). Senders and receivers replay the same
  // deterministic assignment.
  CountMatrix real_left = counts;
  const auto terms = birkhoff_decompose(padded);
  std::size_t max_rounds = 0;
  for (const auto& term : terms) max_rounds += term.count;
  plan.dst.reserve(max_rounds * k);
  plan.src.reserve(max_rounds * k);
  for (const auto& term : terms) {
    for (std::uint64_t rep = 0; rep < term.count; ++rep) {
      // Open the round at the end of the flat arrays; drop it again if it
      // turns out to be all padding.
      const std::size_t base = plan.dst.size();
      plan.dst.resize(base + k, kIdle);
      plan.src.resize(base + k, kIdle);
      bool any = false;
      for (std::size_t c = 0; c < k; ++c) {
        const std::uint32_t cd = term.perm[c];
        if (cd == c) continue;  // self-edges only arise as padding
        if (real_left[c][cd] > 0) {
          --real_left[c][cd];
          plan.dst[base + c] = cd;
          plan.src[base + cd] = static_cast<std::uint32_t>(c);
          any = true;
        }
      }
      if (!any) {
        plan.dst.resize(base);
        plan.src.resize(base);
      }
    }
  }
  // Rounds that carried only padding were dropped.
  plan.dst.shrink_to_fit();
  plan.src.shrink_to_fit();
  // Every real transfer must be scheduled.
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t cd = 0; cd < k; ++cd) {
      MCB_CHECK(real_left[c][cd] == 0,
                "unscheduled transfers " << real_left[c][cd] << " for "
                                         << c << "->" << cd);
    }
  }
  return plan;
}

bool plan_is_valid(const TransferPlan& plan,
                   const std::vector<std::uint32_t>& table) {
  const std::size_t k = plan.k;
  const std::size_t m = plan.m;
  CountMatrix want(k, std::vector<std::uint64_t>(k, 0));
  for (std::size_t ell = 0; ell < m * k; ++ell) {
    const std::size_t c = ell / m;
    const std::size_t cd = table[ell] / m;
    if (c != cd) ++want[c][cd];
  }
  CountMatrix got(k, std::vector<std::uint64_t>(k, 0));
  if (plan.dst.size() != plan.src.size() || plan.dst.size() % k != 0) {
    return false;
  }
  for (std::size_t r = 0; r < plan.cycles(); ++r) {
    std::vector<bool> dst_used(k, false);
    for (std::size_t c = 0; c < k; ++c) {
      const auto d = plan.dst_of(r, c);
      if (d == kIdle) continue;
      if (d >= k || d == c) return false;
      if (dst_used[d]) return false;  // two senders to one receiver
      dst_used[d] = true;
      if (plan.src_of(r, d) != c) return false;  // src must invert dst
      ++got[c][d];
    }
    for (std::size_t cd = 0; cd < k; ++cd) {
      const auto sc = plan.src_of(r, cd);
      if (sc != kIdle && (sc >= k || plan.dst_of(r, sc) != cd)) {
        return false;
      }
    }
  }
  return got == want;
}

}  // namespace mcb::sched
