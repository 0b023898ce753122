#include "serve/server.hpp"

#include <sstream>
#include <utility>

#include "algo/multi_select.hpp"
#include "mcb/network.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace mcb::serve {

namespace {

/// Batch runs shown in the host member's recent_batch_wall_ns window.
constexpr std::size_t kServeWindow = 16;

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kRankSelect: return "rank";
    case OpKind::kTopK: return "topk";
    case OpKind::kChurn: return "churn";
  }
  return "?";
}

/// Queries answered over the session: every operation but churn.
double answered(const ServeReport& rep) {
  return static_cast<double>(rep.queries.size() - rep.churn_ops);
}

double cycles_per_query(const ServeReport& rep) {
  return answered(rep) == 0.0
             ? 0.0
             : static_cast<double>(rep.total_cycles) / answered(rep);
}

double queries_per_kcycle(const ServeReport& rep) {
  return rep.total_cycles == 0
             ? 0.0
             : 1000.0 * answered(rep) / static_cast<double>(rep.total_cycles);
}

}  // namespace

ServeReport run_server(const ServeConfig& cfg) {
  ServeConfig c = cfg;
  if (c.classes.empty()) c.classes = parse_classes("rank:4,topk:2,churn:1");
  c.sim.validate();
  MCB_REQUIRE(c.n >= c.sim.p && c.n % c.sim.p == 0,
              "dataset n=" << c.n << " must be a positive multiple of p="
                           << c.sim.p);
  MCB_REQUIRE(c.batch >= 1, "batch must be at least 1");

  Dataset data(c.n, c.sim.p, c.seed);
  QueryStream stream(c.classes, c.seed);

  // THE long-lived network: constructed once, reset between batches. Every
  // batch re-installs programs into the same ProcTable/slot allocation.
  Network net(c.sim, c.sink);
  bool first_run = true;

  ServeReport rep;
  rep.cfg = c;
  rep.classes.resize(c.classes.size());

  struct Pending {
    std::size_t index;
    std::size_t cls;
    OpKind kind;
    std::size_t rank;
  };
  std::vector<Pending> pending;

  auto flush = [&]() {
    if (pending.empty()) return;
    if (!first_run) net.reset();
    first_run = false;
    std::vector<std::size_t> ds;
    ds.reserve(pending.size());
    for (const Pending& pq : pending) ds.push_back(pq.rank);
    const auto res = algo::select_ranks_on(net, data.shards(), ds);
    ++rep.batches;
    rep.total_cycles += res.stats.cycles;
    rep.total_messages += res.stats.messages;
    rep.filter_phases += res.filter_phases;
    rep.frame_allocs += res.stats.frame_allocs;
    rep.batch_wall_ns.push_back(res.stats.sim_wall_ns);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const Pending& pq = pending[i];
      QueryRecord r;
      r.index = pq.index;
      r.cls = pq.cls;
      r.kind = pq.kind;
      r.rank = pq.rank;
      r.value = res.values[i];
      r.batch_id = rep.batches;
      r.latency_cycles = res.stats.cycles;
      if (c.verify) {
        const Word want = data.nth_largest(pq.rank);
        MCB_CHECK(r.value == want, "query " << pq.index << " rank " << pq.rank
                                            << ": got " << r.value
                                            << ", ground truth " << want);
      }
      rep.classes[pq.cls].latency_cycles.record(
          static_cast<double>(res.stats.cycles));
      rep.queries.push_back(r);
    }
    pending.clear();
  };

  for (std::size_t qi = 0; qi < c.queries; ++qi) {
    const Query q = stream.next();
    ++rep.classes[q.cls].ops;
    if (q.kind == OpKind::kChurn) {
      // Churn is a barrier: answer everything admitted before it first, so
      // every batch runs against one consistent dataset snapshot.
      flush();
      data.churn();
      ++rep.churn_ops;
      QueryRecord r;
      r.index = qi;
      r.cls = q.cls;
      r.kind = q.kind;
      rep.queries.push_back(r);
      continue;
    }
    Pending pq;
    pq.index = qi;
    pq.cls = q.cls;
    pq.kind = q.kind;
    // Ranks resolve against the dataset size at admission time; the churn
    // barrier above guarantees that size is still current when the batch
    // runs.
    pq.rank = q.kind == OpKind::kRankSelect
                  ? quantile_rank(data.size(), q.fraction)
                  : std::min(q.top_m, data.size());
    pending.push_back(pq);
    if (pending.size() >= c.batch) flush();
  }
  flush();
  return rep;
}

std::string ServeReport::json() const {
  // Model-level fields only: no wall clock, no frame counters, no engine
  // identity — the document must be byte-identical for one seed
  // whichever engine answered it (tools/ci.sh cmp's exactly this).
  std::ostringstream os;
  os << "{\"config\":{\"p\":" << cfg.sim.p << ",\"k\":" << cfg.sim.k
     << ",\"n\":" << cfg.n << ",\"seed\":" << cfg.seed
     << ",\"queries\":" << cfg.queries << ",\"batch\":" << cfg.batch
     << ",\"classes\":[";
  for (std::size_t i = 0; i < cfg.classes.size(); ++i) {
    const auto& cl = cfg.classes[i];
    if (i) os << ',';
    os << "{\"name\":\"" << util::json_escape(cl.name)
       << "\",\"weight\":" << cl.weight << '}';
  }
  os << "]},\"batches\":" << batches << ",\"total_cycles\":" << total_cycles
     << ",\"total_messages\":" << total_messages
     << ",\"churn_ops\":" << churn_ops
     << ",\"filter_phases\":" << filter_phases;

  os << ",\"cycles_per_query\":" << util::json_double(cycles_per_query(*this))
     << ",\"queries_per_kcycle\":"
     << util::json_double(queries_per_kcycle(*this));

  os << ",\"classes\":[";
  for (std::size_t i = 0; i < cfg.classes.size(); ++i) {
    if (i) os << ',';
    os << "{\"name\":\"" << util::json_escape(cfg.classes[i].name)
       << "\",\"ops\":" << classes[i].ops;
    const auto& h = classes[i].latency_cycles;
    if (h.count() != 0) {
      os << ",\"latency_cycles\":{\"count\":" << h.count()
         << ",\"p50\":" << util::json_double(h.p50())
         << ",\"p95\":" << util::json_double(h.p95())
         << ",\"p99\":" << util::json_double(h.p99())
         << ",\"max\":" << util::json_double(h.max()) << '}';
    }
    os << '}';
  }
  os << "],\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& r = queries[i];
    if (i) os << ',';
    os << "{\"i\":" << r.index << ",\"class\":\""
       << util::json_escape(cfg.classes[r.cls].name) << "\",\"kind\":\""
       << kind_name(r.kind) << '"';
    if (r.kind != OpKind::kChurn) {
      os << ",\"rank\":" << r.rank << ",\"value\":" << r.value
         << ",\"batch\":" << r.batch_id
         << ",\"latency_cycles\":" << r.latency_cycles;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string ServeReport::markdown() const {
  std::ostringstream os;
  os << "# Serving report\n\n"
     << "MCB(" << cfg.sim.p << "," << cfg.sim.k << "), resident n=" << cfg.n
     << ", seed=" << cfg.seed << ", " << cfg.queries
     << " queries, batch<=" << cfg.batch << "\n\n"
     << "- batches (selection runs): " << batches << "\n"
     << "- total simulated cycles:   " << total_cycles << "\n"
     << "- total messages:           " << total_messages << "\n"
     << "- filtering phases:         " << filter_phases << "\n"
     << "- churn ops (barriers):     " << churn_ops << "\n\n";
  os << "| class | ops | answered | p50 | p95 | p99 | max cycles |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < cfg.classes.size(); ++i) {
    const auto& h = classes[i].latency_cycles;
    os << "| " << cfg.classes[i].name << " | " << classes[i].ops << " | ";
    if (h.count() != 0) {
      os << h.count() << " | " << util::json_double(h.p50()) << " | "
         << util::json_double(h.p95()) << " | " << util::json_double(h.p99())
         << " | " << util::json_double(h.max());
    } else {
      os << "0 | - | - | - | -";
    }
    os << " |\n";
  }
  os << "\n- cycles/query:      " << util::json_double(cycles_per_query(*this))
     << "\n- queries/kcycle:    "
     << util::json_double(queries_per_kcycle(*this)) << '\n';
  return os.str();
}

std::string ServeReport::host_json() const {
  obs::Histogram h;
  std::uint64_t total = 0;
  for (std::uint64_t w : batch_wall_ns) {
    h.record(static_cast<double>(w));
    total += w;
  }
  const std::size_t lo = batch_wall_ns.size() > kServeWindow
                             ? batch_wall_ns.size() - kServeWindow
                             : 0;
  std::ostringstream os;
  os << "{\"sim_wall_ns\":" << total
     << ",\"batch_runs\":" << batch_wall_ns.size()
     << ",\"batch_run_wall_ns\":{\"count\":" << h.count()
     << ",\"p50\":" << util::json_double(h.p50())
     << ",\"p95\":" << util::json_double(h.p95())
     << ",\"p99\":" << util::json_double(h.p99())
     << ",\"max\":" << util::json_double(h.max())
     << "},\"recent_batch_wall_ns\":[";
  for (std::size_t i = lo; i < batch_wall_ns.size(); ++i) {
    if (i != lo) os << ',';
    os << batch_wall_ns[i];
  }
  os << "],\"frame_allocs\":" << frame_allocs << '}';
  return os.str();
}

}  // namespace mcb::serve
