// hostbench — host time to answer, end to end and layer by layer.
//
// One process runs one named workload for a fixed time on the default event
// engine, driving the library only through its public functions:
//
//   select_wide  algo::select_rank at p=32768 (setup-heavy, sparse cycles)
//   sort_dense   algo::sort at p=1024, k=32 (dense resume/channel work)
//   serve_mixed  serve::run_server sessions (warm reuse of one network)
//   sweep_grid   harness::run_sweep + sweep_json (many small trials)
//
// Every operation builds its inputs from --seed inside the timed region and
// is checked against an oracle outside it. A failed check or an exception
// counts as a failed operation; it is never dropped.
//
// Untraced (--trace 0) the last stdout line reports the end-to-end metrics.
// Traced (--trace 1) operations alternate between untraced and traced; the
// traced ones record spans around each call into util, mcb, algo, serve and
// harness, and the last line reports the per-layer metrics. Spans stay in
// memory and are written to --spans-out at the end. hostbench/README.md
// lists every metric and workload.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "harness/sweep.hpp"
#include "mcb/network.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "theory/bounds.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {
namespace {

using mcb::Word;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank quantile (ceil(q * count), floored at rank 1).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / double(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread, and the threads it starts from now on, to
/// `width` of `cpus`, starting at position `i * width` (cyclically).
///
/// On a shared host each core is slowed by its neighbours' load for
/// stretches of up to minutes, and a thread left to the scheduler stays on
/// one core, so a whole run can land on a slow one. Moving operation i to
/// the next core makes every run sample all of them. A failure leaves the
/// thread where it is.
void place_on(const std::vector<int>& cpus, std::size_t i, std::size_t width) {
  if (cpus.size() <= width) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < width; ++j) {
    CPU_SET(cpus[(i * width + j) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Spans

struct SpanRecord {
  const char* name;  // string literal
  std::size_t op;
  int parent;  // index into Tracer::spans(), -1 for an operation's root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t dur() const { return end_ns - start_ns; }
};

class Tracer;

/// RAII span: opened by Tracer::span, closed by close() or the destructor.
/// Inert (records and times nothing) while the tracer is disabled.
class Span {
 public:
  Span(Tracer* t, const char* name);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds a child "mcb.run" of `ns` (RunStats::sim_wall_ns) when the span
  /// closes. run() sits inside the call, so its exact position is unknown;
  /// the child is placed ending at the span's end. Self-time sums use only
  /// durations, so the placement does not affect them.
  void inner_run(std::uint64_t ns) { inner_run_ns_ = ns; }
  /// Closes the span (idempotent) and returns its duration in ns.
  std::uint64_t close();

 private:
  Tracer* t_;
  int id_ = -1;
  std::uint64_t inner_run_ns_ = 0;
  std::uint64_t dur_ = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { on_ = on; }
  void set_op(std::size_t op) { op_ = op; }
  Span span(const char* name) { return Span(on_ ? this : nullptr, name); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, op_, parent, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  std::uint64_t close(int id, std::uint64_t inner_run_ns) {
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    const SpanRecord closed = s;
    stack_.pop_back();
    if (inner_run_ns != 0) {
      spans_.push_back({"mcb.run", op_, id, closed.end_ns - inner_run_ns,
                        closed.end_ns});
    }
    return closed.dur();
  }

  bool on_ = false;
  std::size_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Span::Span(Tracer* t, const char* name) : t_(t) {
  if (t_ != nullptr) id_ = t_->open(name);
}

std::uint64_t Span::close() {
  if (t_ != nullptr) {
    dur_ = t_->close(id_, inner_run_ns_);
    t_ = nullptr;
  }
  return dur_;
}

/// Layer of a span name: the part before the first '.'.
std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

// ---------------------------------------------------------------------------
// Per-operation records and the determinism guard

struct Signature {
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
  std::uint64_t resumes = 0;
  std::uint64_t frame_allocs = 0;
  std::uint64_t digest = 0;  // answers / records / sweep JSON
  friend bool operator==(const Signature&, const Signature&) = default;
};

struct OpRecord {
  std::string kind;  // which operation cycle the op belongs to
  std::size_t slot = 0;  // position in that cycle
  bool traced = false;
  double wall_s = 0.0;   // build to answer; the oracle check is excluded
  double setup_s = -1.0;  // wall outside Network::run(); < 0 when unknown
  double answers = 0.0;
  double runs = 0.0;
  Signature sig;
  bool ok = true;
  std::string error;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return mcb::util::splitmix64(h ^ mcb::util::splitmix64(v));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

// Workload geometry (hostbench/README.md gives the reasons).
constexpr std::size_t kSelectP = 32768, kSelectK = 8, kSelectN = 4 * kSelectP;
// d cycles over the median and two tail quantiles (top 10%, top 1%).
constexpr double kSelectFractions[] = {0.5, 0.1, 0.01};
constexpr std::size_t kSortP = 1024, kSortK = 32, kSortN = 262144;
constexpr std::size_t kServeP = 1024, kServeK = 16, kServeN = 16384;
constexpr std::size_t kServeQueries = 64, kServeBatch = 8;
// Sessions cycle over this many query streams, so one run's figures average
// over several streams instead of following one stream's luck.
constexpr std::size_t kServeStreams = 8;
constexpr std::size_t kSweepThreads = 2;

mcb::SimConfig event_config(std::size_t p, std::size_t k) {
  mcb::SimConfig cfg;
  cfg.p = p;
  cfg.k = k;
  cfg.engine = mcb::Engine::kEventDriven;
  return cfg;
}

/// The oracle for a served stream: walks a fresh Dataset through the churn
/// ops in stream order and checks every answer against nth_largest.
std::string check_serve_answers(const std::vector<mcb::serve::QueryRecord>& recs,
                                std::uint64_t seed) {
  mcb::serve::Dataset data(kServeN, kServeP, seed);
  for (const auto& r : recs) {
    if (r.kind == mcb::serve::OpKind::kChurn) {
      data.churn();
      continue;
    }
    const Word want = data.nth_largest(r.rank);
    if (r.value != want) {
      return "query " + std::to_string(r.index) + " rank " +
             std::to_string(r.rank) + ": got " + std::to_string(r.value) +
             ", expected " + std::to_string(want);
    }
  }
  return {};
}

std::uint64_t records_digest(const std::vector<mcb::serve::QueryRecord>& recs) {
  std::uint64_t h = recs.size();
  for (const auto& r : recs) {
    h = mix(h, r.index);
    h = mix(h, static_cast<std::uint64_t>(r.kind));
    h = mix(h, r.rank);
    h = mix(h, static_cast<std::uint64_t>(r.value));
    h = mix(h, r.batch_id);
    h = mix(h, r.latency_cycles);
  }
  return h;
}

bool same_records(const std::vector<mcb::serve::QueryRecord>& a,
                  const std::vector<mcb::serve::QueryRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].kind != b[i].kind ||
        a[i].rank != b[i].rank || a[i].value != b[i].value ||
        a[i].batch_id != b[i].batch_id ||
        a[i].latency_cycles != b[i].latency_cycles) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options o) : o_(std::move(o)) {}

  int run();

 private:
  // One operation of each kind. `traced` enables spans for it.
  OpRecord select_op(std::size_t slot, bool traced);
  OpRecord sort_op(bool traced);
  OpRecord server_op(std::size_t slot, bool traced);
  OpRecord replay_op(std::size_t slot, bool traced);
  std::uint64_t serve_seed(std::size_t slot) const {
    return o_.seed * kServeStreams + slot;
  }
  OpRecord sweep_op(bool traced);

  /// Fresh-network probe on the op's geometry: Network construction,
  /// select_ranks_on (install + run + hand-back), destruction.
  void network_probe(const mcb::SimConfig& cfg,
                     const std::vector<std::vector<Word>>& inputs,
                     std::size_t d);
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void record_run(const mcb::RunStats& st);

  /// Runs `f` as operation number ops_.size(), catching failures, checking
  /// the determinism guard, and appending the record.
  void run_op(const std::function<OpRecord()>& f, const std::string& kind,
              std::size_t slot, bool traced);

  void report_end_to_end(bool& correct);
  void report_layers(bool& correct);
  bool reconcile(std::map<std::string, double>& self_ms, double& unattr_ms,
                 double& op_ms) const;
  void write_spans() const;

  Options o_;
  Tracer tr_;
  std::vector<OpRecord> ops_;
  std::map<std::string, Signature> first_sig_;
  std::vector<std::string> guard_failures_;
  std::map<std::string, std::vector<double>> samples_;
  // Exact counts summed over the network runs of the first traced op.
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t first_traced_op_ = kNone;
  std::uint64_t first_op_resumes_ = 0;
  std::uint64_t first_op_frame_allocs_ = 0;
  // Accumulated over traced network runs, for the normalized ratios.
  double run_ns_sum_ = 0, resumes_sum_ = 0, messages_sum_ = 0;
  double allocs_sum_ = 0, reuses_sum_ = 0;
  double cycles_sum_ = 0, predicted_cycles_sum_ = 0;
  // The latest run_server session, which the replay must reproduce.
  std::vector<mcb::serve::QueryRecord> server_records_;
  mcb::Cycle server_total_cycles_ = 0;
  std::size_t server_slot_ = 0;
  bool have_server_ = false;
  bool replay_mismatch_ = false;
  std::uint64_t t_start_ = 0;
  // Length of the operation cycle: ops repeat with this period so that
  // every repeat can be held to the first one's simulated counts.
  std::size_t period_ = 1;
};

void Bench::record_run(const mcb::RunStats& st) {
  if (ops_.size() == first_traced_op_) {
    first_op_resumes_ += st.proc_resumes;
    first_op_frame_allocs_ += st.frame_allocs;
  }
  sample("mcb.run_ms", double(st.sim_wall_ns) * 1e-6);
  run_ns_sum_ += double(st.sim_wall_ns);
  resumes_sum_ += double(st.proc_resumes);
  messages_sum_ += double(st.messages);
  allocs_sum_ += double(st.frame_allocs);
  reuses_sum_ += double(st.frame_reuses);
}

void Bench::network_probe(const mcb::SimConfig& cfg,
                          const std::vector<std::vector<Word>>& inputs,
                          std::size_t d) {
  std::unique_ptr<mcb::Network> net;
  {
    auto s = tr_.span("mcb.ctor");
    net = std::make_unique<mcb::Network>(cfg);
    sample("mcb.ctor_ms", double(s.close()) * 1e-6);
  }
  {
    auto s = tr_.span("algo.select_ranks_on");
    const auto res = mcb::algo::select_ranks_on(*net, inputs, {d});
    s.inner_run(res.stats.sim_wall_ns);
    const auto wall = double(s.close());
    sample("mcb.install_ns_per_proc",
           (wall - double(res.stats.sim_wall_ns)) / double(cfg.p));
  }
  {
    auto s = tr_.span("mcb.teardown");
    net.reset();
    sample("mcb.teardown_ms", double(s.close()) * 1e-6);
  }
}

OpRecord Bench::select_op(std::size_t slot, bool traced) {
  const auto cfg = event_config(kSelectP, kSelectK);
  const std::size_t d =
      mcb::serve::quantile_rank(kSelectN, kSelectFractions[slot]);
  OpRecord r;
  const std::uint64_t t0 = now_ns();
  mcb::util::Workload w;
  {
    auto s = tr_.span("util.make_workload");
    w = mcb::util::make_workload(kSelectN, kSelectP, mcb::util::Shape::kEven,
                                 o_.seed);
    if (traced) sample("util.workload_ms", double(s.close()) * 1e-6);
  }
  mcb::algo::SelectionResult res;
  {
    auto s = tr_.span("algo.select_rank");
    res = mcb::algo::select_rank(cfg, w.inputs, d);
    s.inner_run(res.stats.sim_wall_ns);
    if (traced) {
      const auto wall = double(s.close());
      sample("algo.call_ms", wall * 1e-6);
      sample("algo.outside_run_ms",
             (wall - double(res.stats.sim_wall_ns)) * 1e-6);
    }
  }
  const std::uint64_t t1 = now_ns();
  r.wall_s = double(t1 - t0) * 1e-9;
  r.setup_s = double(t1 - t0 - res.stats.sim_wall_ns) * 1e-9;
  r.answers = 1;
  r.runs = 1;
  r.sig = {res.stats.cycles, res.stats.messages, res.stats.proc_resumes,
           res.stats.frame_allocs, static_cast<std::uint64_t>(res.value)};
  if (traced) {
    record_run(res.stats);
    cycles_sum_ += double(res.stats.cycles);
    predicted_cycles_sum_ +=
        mcb::theory::selection_cycles_term(kSelectP, kSelectK, kSelectN);
    network_probe(cfg, w.inputs, d);
  }
  {
    auto s = tr_.span("bench.verify");
    std::vector<Word> flat;
    flat.reserve(kSelectN);
    for (const auto& in : w.inputs) flat.insert(flat.end(), in.begin(), in.end());
    auto nth = flat.begin() + static_cast<std::ptrdiff_t>(d - 1);
    std::nth_element(flat.begin(), nth, flat.end(), std::greater<Word>{});
    if (res.value != *nth) {
      r.ok = false;
      r.error = "select_rank(d=" + std::to_string(d) + ") returned " +
                std::to_string(res.value) + ", expected " +
                std::to_string(*nth);
    }
    if (traced) sample("bench.verify_ms", double(s.close()) * 1e-6);
  }
  return r;
}

OpRecord Bench::sort_op(bool traced) {
  const auto cfg = event_config(kSortP, kSortK);
  OpRecord r;
  const std::uint64_t t0 = now_ns();
  mcb::util::Workload w;
  {
    auto s = tr_.span("util.make_workload");
    w = mcb::util::make_workload(kSortN, kSortP, mcb::util::Shape::kEven,
                                 o_.seed);
    if (traced) sample("util.workload_ms", double(s.close()) * 1e-6);
  }
  mcb::algo::SortOutcome res;
  {
    auto s = tr_.span("algo.sort");
    res = mcb::algo::sort(cfg, w.inputs);
    s.inner_run(res.run.stats.sim_wall_ns);
    if (traced) {
      const auto wall = double(s.close());
      sample("algo.call_ms", wall * 1e-6);
      sample("algo.outside_run_ms",
             (wall - double(res.run.stats.sim_wall_ns)) * 1e-6);
    }
  }
  const std::uint64_t t1 = now_ns();
  const auto& st = res.run.stats;
  r.wall_s = double(t1 - t0) * 1e-9;
  r.setup_s = double(t1 - t0 - st.sim_wall_ns) * 1e-9;
  r.answers = 1;
  r.runs = 1;
  if (traced) {
    record_run(st);
    cycles_sum_ += double(st.cycles);
    predicted_cycles_sum_ +=
        mcb::theory::sorting_cycles_term(kSortN, kSortK, w.max_local());
    network_probe(cfg, w.inputs, kSortN / 2);
  }
  {
    auto s = tr_.span("bench.verify");
    bool descending = true;
    bool first = true;
    Word prev = 0;
    for (const auto& out : res.run.outputs) {
      for (Word v : out) {
        if (!first && v > prev) descending = false;
        prev = v;
        first = false;
      }
    }
    mcb::util::MultisetFingerprint fin, fout;
    {
      auto f = tr_.span("util.multiset_fingerprint");
      fin = mcb::util::multiset_fingerprint(w.inputs);
      fout = mcb::util::multiset_fingerprint(res.run.outputs);
    }
    if (!descending) {
      r.ok = false;
      r.error = "sort output is not descending";
    } else if (!(fin == fout)) {
      r.ok = false;
      r.error = "sort output is not a permutation of the input";
    }
    r.sig = {st.cycles, st.messages, st.proc_resumes, st.frame_allocs,
             mix(fout.hash_sum, fout.hash_xor)};
    if (traced) sample("bench.verify_ms", double(s.close()) * 1e-6);
  }
  return r;
}

mcb::serve::ServeConfig serve_config(std::uint64_t seed) {
  mcb::serve::ServeConfig sc;
  sc.sim = event_config(kServeP, kServeK);
  sc.n = kServeN;
  sc.seed = seed;
  sc.queries = kServeQueries;
  sc.batch = kServeBatch;
  sc.verify = false;
  return sc;
}

OpRecord Bench::server_op(std::size_t slot, bool traced) {
  OpRecord r;
  const std::uint64_t t0 = now_ns();
  mcb::serve::ServeReport rep;
  {
    auto s = tr_.span("serve.run_server");
    rep = mcb::serve::run_server(serve_config(serve_seed(slot)));
  }
  const std::uint64_t t1 = now_ns();
  r.wall_s = double(t1 - t0) * 1e-9;
  std::size_t answered = 0;
  for (const auto& q : rep.queries) {
    if (q.kind != mcb::serve::OpKind::kChurn) ++answered;
  }
  r.answers = double(answered);
  r.runs = double(rep.batches);
  r.sig = {rep.total_cycles, rep.total_messages, 0, rep.frame_allocs,
           records_digest(rep.queries)};
  {
    auto s = tr_.span("bench.verify");
    r.error = check_serve_answers(rep.queries, serve_seed(slot));
    r.ok = r.error.empty();
    if (traced) sample("bench.verify_ms", double(s.close()) * 1e-6);
  }
  server_records_ = std::move(rep.queries);
  server_slot_ = slot;
  server_total_cycles_ = rep.total_cycles;
  have_server_ = true;
  return r;
}

// Drives the serve_mixed stream through Dataset, QueryStream, one Network
// with reset() and select_ranks_on, exactly as run_server's loop does, so
// the serving session can be timed call by call.
OpRecord Bench::replay_op(std::size_t slot, bool traced) {
  namespace sv = mcb::serve;
  const auto cfg = event_config(kServeP, kServeK);
  const std::uint64_t seed = serve_seed(slot);
  OpRecord r;
  std::vector<sv::QueryRecord> recs;
  mcb::Cycle total_cycles = 0;
  std::uint64_t run_ns = 0;
  const std::uint64_t t0 = now_ns();
  {
    std::unique_ptr<sv::Dataset> data;
    {
      auto s = tr_.span("serve.Dataset");
      data = std::make_unique<sv::Dataset>(kServeN, kServeP, seed);
      if (traced) sample("util.workload_ms", double(s.close()) * 1e-6);
    }
    sv::QueryStream stream(sv::parse_classes("rank:4,topk:2,churn:1"),
                           seed);
    std::unique_ptr<mcb::Network> net;
    {
      auto s = tr_.span("mcb.ctor");
      net = std::make_unique<mcb::Network>(cfg);
      if (traced) sample("mcb.ctor_ms", double(s.close()) * 1e-6);
    }
    struct Pending {
      std::size_t index;
      sv::OpKind kind;
      std::size_t rank;
    };
    std::vector<Pending> pending;
    std::size_t batches = 0;
    auto flush = [&]() {
      if (pending.empty()) return;
      std::uint64_t batch_ns = 0;
      if (batches != 0) {
        auto s = tr_.span("mcb.reset");
        net->reset();
        batch_ns += s.close();
        if (traced) sample("mcb.reset_ms", double(batch_ns) * 1e-6);
      }
      std::vector<std::size_t> ds;
      ds.reserve(pending.size());
      for (const Pending& pq : pending) ds.push_back(pq.rank);
      mcb::algo::MultiSelectionResult res;
      {
        auto s = tr_.span("algo.select_ranks_on");
        res = mcb::algo::select_ranks_on(*net, data->shards(), ds);
        s.inner_run(res.stats.sim_wall_ns);
        const auto wall = s.close();
        batch_ns += wall;
        if (traced) {
          sample("algo.call_ms", double(wall) * 1e-6);
          sample("algo.outside_run_ms",
                 double(wall - res.stats.sim_wall_ns) * 1e-6);
          if (batches == 0) {
            sample("mcb.install_ns_per_proc",
                   double(wall - res.stats.sim_wall_ns) / double(kServeP));
          }
        }
      }
      ++batches;
      total_cycles += res.stats.cycles;
      run_ns += res.stats.sim_wall_ns;
      r.sig.cycles += res.stats.cycles;
      r.sig.messages += res.stats.messages;
      r.sig.resumes += res.stats.proc_resumes;
      r.sig.frame_allocs += res.stats.frame_allocs;
      if (traced) {
        record_run(res.stats);
        cycles_sum_ += double(res.stats.cycles);
        predicted_cycles_sum_ +=
            mcb::theory::selection_cycles_term(kServeP, kServeK, kServeN);
        sample("serve.batch_ms", double(batch_ns) * 1e-6);
        sample("serve.batch_size", double(pending.size()));
      }
      for (std::size_t i = 0; i < pending.size(); ++i) {
        sv::QueryRecord q;
        q.index = pending[i].index;
        q.kind = pending[i].kind;
        q.rank = pending[i].rank;
        q.value = res.values[i];
        q.batch_id = batches;
        q.latency_cycles = res.stats.cycles;
        recs.push_back(q);
      }
      pending.clear();
    };
    for (std::size_t qi = 0; qi < kServeQueries; ++qi) {
      const sv::Query q = stream.next();
      if (q.kind == sv::OpKind::kChurn) {
        flush();
        auto s = tr_.span("serve.churn");
        data->churn();
        if (traced) sample("serve.churn_us", double(s.close()) * 1e-3);
        sv::QueryRecord c;
        c.index = qi;
        c.kind = q.kind;
        recs.push_back(c);
        continue;
      }
      pending.push_back({qi, q.kind,
                         q.kind == sv::OpKind::kRankSelect
                             ? sv::quantile_rank(data->size(), q.fraction)
                             : std::min(q.top_m, data->size())});
      if (pending.size() >= kServeBatch) flush();
    }
    flush();
    r.runs = double(batches);
    auto s = tr_.span("mcb.teardown");
    net.reset();
    if (traced) sample("mcb.teardown_ms", double(s.close()) * 1e-6);
  }
  const std::uint64_t t1 = now_ns();
  r.wall_s = double(t1 - t0) * 1e-9;
  r.setup_s = double(t1 - t0 - run_ns) * 1e-9;
  std::size_t answered = 0;
  for (const auto& q : recs) {
    if (q.kind != sv::OpKind::kChurn) ++answered;
  }
  r.answers = double(answered);
  r.sig.digest = records_digest(recs);
  {
    auto s = tr_.span("bench.verify");
    r.error = check_serve_answers(recs, seed);
    if (r.error.empty() && have_server_ && server_slot_ == slot &&
        (!same_records(recs, server_records_) ||
         total_cycles != server_total_cycles_)) {
      replay_mismatch_ = true;
      r.error = "replay does not reproduce run_server's records";
    }
    r.ok = r.error.empty();
    if (traced) sample("bench.verify_ms", double(s.close()) * 1e-6);
  }
  return r;
}

mcb::harness::Sweep sweep_spec(std::uint64_t seed) {
  mcb::harness::Sweep sw;
  sw.ps = {64, 256, 1024};
  sw.ks = {4, 16};
  sw.ns = {16384};
  sw.shapes = {mcb::util::Shape::kEven, mcb::util::Shape::kZipf};
  sw.algorithms = {"auto", "select"};
  sw.seeds = 4;
  sw.base_seed = seed;
  sw.engine = mcb::Engine::kEventDriven;
  return sw;
}

std::size_t sweep_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(kSweepThreads, hw));
}

OpRecord Bench::sweep_op(bool traced) {
  namespace hn = mcb::harness;
  const auto sw = sweep_spec(o_.seed);
  OpRecord r;
  const std::uint64_t t0 = now_ns();
  hn::SweepRun run;
  std::uint64_t sweep_ns = 0;
  {
    auto s = tr_.span("harness.run_sweep");
    run = hn::run_sweep(sw, {.threads = sweep_threads()});
    sweep_ns = now_ns() - t0;
  }
  std::string json;
  {
    auto s = tr_.span("harness.sweep_json");
    json = hn::sweep_json(run);
    if (traced) sample("harness.json_ms", double(s.close()) * 1e-6);
  }
  const std::uint64_t t1 = now_ns();
  r.wall_s = double(t1 - t0) * 1e-9;
  double run_ns = 0;
  for (const auto& t : run.results) {
    run_ns += double(t.sim_wall_ns);
    r.sig.cycles += t.cycles;
    r.sig.messages += t.messages;
    r.sig.resumes += t.proc_resumes;
    r.sig.frame_allocs += t.frame_allocs;
  }
  // Worker time outside run(): every worker is held for the whole of
  // run_sweep, then sweep_json runs on the caller.
  const double workers = double(run.threads_used);
  r.setup_s = (workers * double(sweep_ns) - run_ns +
               double((t1 - t0) - sweep_ns)) *
              1e-9;
  r.answers = double(run.results.size());
  r.runs = double(run.results.size());
  std::uint64_t h = json.size();
  for (char c : json) h = h * 1099511628211ull ^ static_cast<unsigned char>(c);
  r.sig.digest = h;
  if (traced) {
    // Serial pass over the same trials: per-trial wall time, and the
    // workload build each trial performs inside run_trial.
    double trial_ns = 0;
    for (std::size_t i = 0; i < run.specs.size(); ++i) {
      const auto& spec = run.specs[i];
      {
        auto s = tr_.span("util.make_workload");
        const auto w = mcb::util::make_workload(spec.point.n, spec.point.p,
                                                spec.point.shape, spec.seed);
        sample("util.workload_ms", double(s.close()) * 1e-6);
      }
      auto s = tr_.span("harness.run_trial");
      const auto t = hn::run_trial(spec, sw.engine);
      s.inner_run(t.sim_wall_ns);
      const auto ns = s.close();
      trial_ns += double(ns);
      sample("harness.trial_ms", double(ns) * 1e-6);
      if (t.cycles != run.results[i].cycles ||
          t.messages != run.results[i].messages) {
        r.ok = false;
        r.error = "serial run_trial disagrees with run_sweep on trial " +
                  std::to_string(i);
      }
      mcb::RunStats st;
      st.sim_wall_ns = t.sim_wall_ns;
      st.proc_resumes = t.proc_resumes;
      st.messages = t.messages;
      st.frame_allocs = t.frame_allocs;
      st.frame_reuses = static_cast<std::uint64_t>(
          std::llround(t.arena_hit_rate * double(t.frame_allocs)));
      record_run(st);
      cycles_sum_ += double(t.cycles);
      predicted_cycles_sum_ += t.predicted_cycles;
    }
    sample("harness.pool_efficiency", ratio(trial_ns, workers * double(sweep_ns)));
  }
  {
    auto s = tr_.span("bench.verify");
    for (std::size_t i = 0; i < run.results.size() && r.ok; ++i) {
      if (!run.results[i].ok()) {
        r.ok = false;
        r.error = "trial " + std::to_string(i) + ": " + run.results[i].error;
      }
    }
    if (traced) sample("bench.verify_ms", double(s.close()) * 1e-6);
  }
  return r;
}

void Bench::run_op(const std::function<OpRecord()>& f, const std::string& kind,
                   std::size_t slot, bool traced) {
  tr_.set_op(ops_.size());
  tr_.set_enabled(traced);
  if (traced && first_traced_op_ == kNone) first_traced_op_ = ops_.size();
  OpRecord r;
  {
    auto root = tr_.span("op");
    try {
      r = f();
    } catch (const std::exception& e) {
      r = OpRecord{};
      r.ok = false;
      r.error = e.what();
    }
  }
  tr_.set_enabled(false);
  r.kind = kind;
  r.slot = slot;
  r.traced = traced;
  if (r.ok) {
    const std::string key = kind + "#" + std::to_string(slot);
    const auto it = first_sig_.find(key);
    if (it == first_sig_.end()) {
      first_sig_.emplace(key, r.sig);
    } else if (!(it->second == r.sig)) {
      guard_failures_.push_back("op " + std::to_string(ops_.size()) + " (" +
                                key + ") changed its simulated counts");
    }
  } else {
    std::cerr << "hostbench: op " << ops_.size() << " failed: " << r.error
              << "\n";
  }
  std::cout << "op " << ops_.size() << " " << kind << "#" << slot
            << (traced ? " traced" : "") << " wall_s=" << r.wall_s
            << " setup_s=" << r.setup_s << " answers=" << r.answers
            << " runs=" << r.runs << (r.ok ? "" : " FAILED") << "\n";
  ops_.push_back(std::move(r));
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << ms[i].name << "\": {\"value\": " << fmt(ms[i].value)
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int Bench::run() {
  const std::string& w = o_.workload;
  std::function<OpRecord(std::size_t, bool)> main_op;
  if (w == "select_wide") {
    main_op = [this](std::size_t slot, bool t) { return select_op(slot, t); };
    period_ = std::size(kSelectFractions);
  } else if (w == "sort_dense") {
    main_op = [this](std::size_t, bool t) { return sort_op(t); };
  } else if (w == "serve_mixed") {
    // The replay; the loop below schedules the run_server sessions.
    main_op = [this](std::size_t slot, bool t) { return replay_op(slot, t); };
    period_ = kServeStreams;
  } else if (w == "sweep_grid") {
    main_op = [this](std::size_t, bool t) { return sweep_op(t); };
  } else {
    std::cerr << "hostbench: unknown workload '" << w << "'\n";
    return 2;
  }
  const bool serve = w == "serve_mixed";
  const std::vector<int> cpus = allowed_cpus();
  // The sweep's worker threads start inside run_sweep and inherit the mask.
  const std::size_t width = w == "sweep_grid" ? sweep_threads() : 1;

  std::cout << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpus_allowed\": " << cpus.size()
            << ", \"compiler\": \"" << HOSTBENCH_COMPILER
            << "\", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE
            << "\", \"engine\": \"event\"}, \"workload\": \"" << w
            << "\", \"seed\": " << o_.seed << ", \"seconds\": " << o_.seconds
            << ", \"trace\": " << (o_.trace ? 1 : 0) << "}\n";

  t_start_ = now_ns();
  const auto elapsed = [this] { return double(now_ns() - t_start_) * 1e-9; };
  std::map<std::string, double> last_wall;
  std::size_t i = 0;
  for (;; ++i) {
    // kind, slot and tracing of op i.
    std::string kind = "main";
    std::size_t slot = 0;
    bool traced = false;
    std::function<OpRecord()> f;
    if (!o_.trace) {
      // Serving: the first pass alternates a run_server session with the
      // replay of the same stream; later ops are run_server sessions.
      const bool first_pass = i < 2 * period_;
      slot = (serve ? (first_pass ? i / 2 : i - period_) : i) % period_;
      if (serve && (!first_pass || i % 2 == 0)) {
        kind = "server";
        f = [this, slot] { return server_op(slot, false); };
      } else {
        f = [&main_op, slot] { return main_op(slot, false); };
      }
    } else {
      // Pairs: the untraced op, then the same op traced (plus probes).
      slot = (i / 2) % period_;
      traced = i % 2 == 1;
      if (serve && traced) {
        f = [this, slot] {
          const OpRecord srv = server_op(slot, true);
          return srv.ok ? replay_op(slot, true) : srv;
        };
      } else {
        f = [&main_op, slot, traced] { return main_op(slot, traced); };
      }
    }
    place_on(cpus, i, width);
    const std::uint64_t a = now_ns();
    run_op(f, kind, slot, traced);
    last_wall[traced ? "traced" : kind] = double(now_ns() - a) * 1e-9;

    const std::size_t done = i + 1;
    // Untraced runs finish at least one pass of the cycle, which the
    // simulated counts are summed over.
    const std::size_t min_ops = o_.trace ? 2 : (serve ? 2 : 1) * period_;
    if (done < min_ops) continue;
    // Stop when the next op would overrun the measuring time.
    double next = 0;
    for (const auto& [k, v] : last_wall) next = std::max(next, v);
    if (elapsed() + next > o_.seconds) break;
  }

  bool correct = guard_failures_.empty() && !replay_mismatch_;
  for (const auto& g : guard_failures_) std::cerr << "hostbench: " << g << "\n";
  if (o_.trace) {
    report_layers(correct);
    write_spans();
  } else {
    report_end_to_end(correct);
  }
  return correct ? 0 : 1;
}

void Bench::report_end_to_end(bool& correct) {
  // Each distinct operation (kind#slot) is timed by the median of its
  // repeats, and the figures combine one pass over the operation cycle, so
  // operations of unequal work (serve streams, selection ranks) weigh the
  // same in every run.
  struct Slot {
    std::vector<double> walls;
    double answers;
    double runs;
    Signature sig;
  };
  std::map<std::string, Slot> slots;
  std::vector<double> setup;
  std::size_t failed = 0, timed = 0;
  const bool serve = o_.workload == "serve_mixed";
  for (const auto& r : ops_) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    // Serving is timed end to end through run_server; its setup through
    // the replay, which is the only place run() time is visible.
    const bool main = !serve || r.kind == "server";
    if (main) {
      ++timed;
      const std::string key = r.kind + "#" + std::to_string(r.slot);
      auto& slot = slots.try_emplace(key, Slot{{}, r.answers, r.runs, r.sig})
                       .first->second;
      slot.walls.push_back(r.wall_s);
    }
    if (r.setup_s >= 0) setup.push_back(r.setup_s);
  }
  double wall = 0, answers = 0, runs = 0, cycles = 0, messages = 0;
  for (const auto& [k, sl] : slots) {
    wall += median(sl.walls);
    answers += sl.answers;
    runs += sl.runs;
    cycles += double(sl.sig.cycles);
    messages += double(sl.sig.messages);
  }
  if (failed != 0 || slots.size() != period_ || setup.empty()) {
    correct = false;
  }
  std::cout << "samples: total_s/qps/trials_per_s medians of n=" << timed
            << " over " << slots.size() << " distinct op(s), setup_s median of n="
            << setup.size() << "\n"
            << "error_rate: " << failed << "/" << ops_.size() << "\n";
  print_result(correct, ops_.size(), failed,
               {{"total_s", ratio(wall, double(slots.size())), "s"},
                {"setup_s", median(setup), "s"},
                {"qps", ratio(answers, wall), "1/s"},
                {"trials_per_s", ratio(runs, wall), "1/s"},
                {"sim_cycles", cycles, "count"},
                {"sim_messages", messages, "count"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
}

bool Bench::reconcile(std::map<std::string, double>& self_ms,
                      double& unattr_ms, double& op_ms) const {
  const auto& sp = tr_.spans();
  std::vector<double> child_ns(sp.size(), 0.0);
  bool ok = true;
  for (const auto& s : sp) {
    if (s.parent < 0) continue;
    const auto& p = sp[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op) {
      ok = false;
    }
    child_ns[static_cast<std::size_t>(s.parent)] += double(s.dur());
  }
  std::map<std::size_t, double> op_wall, op_sum;
  std::size_t roots = 0;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const double self = double(sp[i].dur()) - child_ns[i];
    if (self < 0) ok = false;
    op_sum[sp[i].op] += self;
    if (sp[i].parent < 0) {
      ++roots;
      op_wall[sp[i].op] += double(sp[i].dur());
      unattr_ms += self * 1e-6;
    } else {
      self_ms[layer_of(sp[i].name)] += self * 1e-6;
    }
  }
  // Per operation: the layers' self times plus the root's own (unattributed)
  // time must add up to the operation's wall time.
  for (const auto& [op, wall] : op_wall) {
    if (std::llround(op_sum[op]) != std::llround(wall)) ok = false;
    op_ms += wall * 1e-6;
  }
  const double n = double(op_wall.empty() ? 1 : op_wall.size());
  for (auto& [k, v] : self_ms) v /= n;
  unattr_ms /= n;
  op_ms /= n;
  return ok && roots == op_wall.size();
}

void Bench::report_layers(bool& correct) {
  std::size_t failed = 0;
  std::vector<double> untraced, traced;
  for (const auto& r : ops_) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    (r.traced ? traced : untraced).push_back(r.wall_s);
  }
  if (failed != 0 || traced.empty() || untraced.empty()) correct = false;

  std::map<std::string, double> self_ms;
  for (const char* l : {"util", "mcb", "algo", "serve", "harness", "bench"}) {
    self_ms[l] = 0.0;
  }
  double unattr_ms = 0, op_ms = 0;
  const bool reconciled = reconcile(self_ms, unattr_ms, op_ms);
  if (!reconciled) correct = false;

  auto med = [this](const char* n) {
    const auto it = samples_.find(n);
    return it == samples_.end() ? 0.0 : median(it->second);
  };
  auto q90 = [this](const char* n) {
    const auto it = samples_.find(n);
    return it == samples_.end() ? 0.0 : quantile(it->second, 0.9);
  };
  auto avg = [this](const char* n) {
    const auto it = samples_.find(n);
    return it == samples_.end() ? 0.0 : mean(it->second);
  };
  std::cout << "reconcile: " << (reconciled ? "ok" : "FAILED")
            << ", traced ops n=" << traced.size()
            << ", untraced ops n=" << untraced.size()
            << ", spans n=" << tr_.spans().size() << "\n"
            << "error_rate: " << failed << "/" << ops_.size() << "\n";
  std::vector<Metric> ms = {
      {"util.workload_ms", med("util.workload_ms"), "ms"},
      {"mcb.ctor_ms", med("mcb.ctor_ms"), "ms"},
      {"mcb.install_ns_per_proc", med("mcb.install_ns_per_proc"), "ns"},
      {"mcb.run_ms", med("mcb.run_ms"), "ms"},
      {"mcb.ns_per_resume", ratio(run_ns_sum_, resumes_sum_), "ns"},
      {"mcb.ns_per_message", ratio(run_ns_sum_, messages_sum_), "ns"},
      {"mcb.proc_resumes", double(first_op_resumes_), "count"},
      {"mcb.reset_ms", med("mcb.reset_ms"), "ms"},
      {"mcb.teardown_ms", med("mcb.teardown_ms"), "ms"},
      {"arena.frame_allocs", double(first_op_frame_allocs_), "count"},
      {"arena.reuse_ratio", ratio(reuses_sum_, allocs_sum_), "ratio"},
      {"algo.call_ms", med("algo.call_ms"), "ms"},
      {"algo.outside_run_ms", med("algo.outside_run_ms"), "ms"},
      {"serve.batch_ms_p50", med("serve.batch_ms"), "ms"},
      {"serve.batch_ms_p90", q90("serve.batch_ms"), "ms"},
      {"serve.churn_us", med("serve.churn_us"), "us"},
      {"serve.batch_size_mean", avg("serve.batch_size"), "count"},
      {"harness.trial_ms_p50", med("harness.trial_ms"), "ms"},
      {"harness.trial_ms_p90", q90("harness.trial_ms"), "ms"},
      {"harness.pool_efficiency", med("harness.pool_efficiency"), "ratio"},
      {"harness.json_ms", med("harness.json_ms"), "ms"},
      {"theory.cycles_ratio", ratio(cycles_sum_, predicted_cycles_sum_),
       "ratio"},
      {"bench.verify_ms", med("bench.verify_ms"), "ms"},
      {"unattributed_ms", unattr_ms, "ms"},
      {"unattributed_share", ratio(unattr_ms, op_ms), "ratio"},
      {"trace_overhead", ratio(median(traced), median(untraced)), "ratio"},
  };
  for (const auto& [layer, v] : self_ms) {
    ms.push_back({layer + ".self_ms", v, "ms"});
  }
  ms.push_back({"traced_op_ms", op_ms, "ms"});
  print_result(correct, ops_.size(), failed, ms);
}

void Bench::write_spans() const {
  if (o_.spans_out.empty()) return;
  std::ofstream out(o_.spans_out);
  out << "{\"workload\": \"" << o_.workload << "\", \"seed\": " << o_.seed
      << ", \"spans\": [\n";
  const auto& sp = tr_.spans();
  for (std::size_t i = 0; i < sp.size(); ++i) {
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << sp[i].name << "\", \"op\": " << sp[i].op
        << ", \"parent\": " << sp[i].parent
        << ", \"start_ns\": " << sp[i].start_ns - t_start_
        << ", \"end_ns\": " << sp[i].end_ns - t_start_ << "}";
  }
  out << "\n]}\n";
  if (!out) std::cerr << "hostbench: cannot write " << o_.spans_out << "\n";
}

int usage(const char* msg) {
  std::cerr << "hostbench: " << msg
            << "\nusage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        have_seconds = o.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--spans-out") {
        o.spans_out = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  Bench b(o);
  return b.run();
}
