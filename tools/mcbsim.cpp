// mcbsim — command-line driver for the MCB library.
//
//   mcbsim sort    --p 16 --k 4 --n 1024 [--shape even] [--seed 1]
//                  [--algorithm auto] [--engine event|reference] [--json]
//   mcbsim select  --p 16 --k 4 --n 1024 [--rank d | median by default]
//                  [--shape even] [--seed 1]
//                  [--engine event|reference] [--json]
//   mcbsim psum    --p 16 --k 4 [--op add|max|min]
//   mcbsim trace   --p 4  [--n 48] [--seed 3]   (cycle-level channel dump)
//   mcbsim bounds  --p 16 --k 4 --n 1024 [--shape even] [--d rank]
//   mcbsim sweep   --p 8,16 --k 2,4 --n 1024 [--shapes even,zipf]
//                  [--algorithms auto,select] [--seeds 3] [--seed 1]
//                  [--threads N] [--engine event|reference]
//                  [--check] [--json]
//
// Only sweep takes --threads: the trial-pool width. Single runs are serial.
//   mcbsim gates   <bench.json>   (scan a BENCH_*.json for gate results)
//   mcbsim report  <run.json|sweep.json>   (deterministic Markdown report)
//
// sort/select/trace/sweep accept --check: attach the model-conformance
// checker (src/check) to the run and fail (exit 1) on any violation.
//
// sort/select/trace accept the telemetry flags (sweep accepts --obs):
//   --obs               collect phase spans + per-channel timeline; spans
//                       are reconciled against PhaseStats (exit 1 on any
//                       disagreement) and serialized under "obs" in --json
//   --trace-out f.json  write a Chrome trace-event / Perfetto JSON trace
//                       (implies --obs); load it in ui.perfetto.dev
//   --obs-buckets N     timeline resolution (default 256 buckets)
//
// sort/select/trace/serve accept --profile: add the run's host telemetry
// (wall time and frame counters) as one "host" member, or a
// "host profile:" block in text output. Without it no output carries host
// data; `mcbsim strip-host` removes every "host" member.
//
// Exit code 0 on success; 2 on usage errors; 1 on conformance violations or
// failed trials; `gates` exits 1 on a failed enforced gate and 3 when
// unenforced gates are present (tools/ci.sh turns 3 into a loud WARNING).
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>

#include "harness/sweep.hpp"
#include "mcb/mcb.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "se/shout_echo.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace mcb;

util::Shape parse_shape(const std::string& s) {
  if (s == "even") return util::Shape::kEven;
  if (s == "zipf") return util::Shape::kZipf;
  if (s == "onehot") return util::Shape::kOneHot;
  if (s == "random") return util::Shape::kRandom;
  if (s == "staircase") return util::Shape::kStaircase;
  throw std::invalid_argument("unknown shape '" + s +
                              "' (even|zipf|onehot|random|staircase)");
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) {
    throw std::invalid_argument("empty list '" + s + "'");
  }
  return out;
}

std::vector<std::size_t> parse_uint_list(const std::string& s) {
  std::vector<std::size_t> out;
  for (const auto& item : split_list(s)) {
    // std::stoull accepts leading whitespace and a sign, wrapping "-5" to
    // 18446744073709551611 silently; these flags are counts and sizes, so
    // only plain digit strings are meaningful.
    if (item.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("malformed unsigned integer '" + item +
                                  "' (digits only)");
    }
    std::size_t pos = 0;
    const auto v = std::stoull(item, &pos);
    if (pos != item.size()) {
      throw std::invalid_argument("malformed integer '" + item + "'");
    }
    out.push_back(v);
  }
  return out;
}

/// The run's logical identity: everything needed to regenerate its workload
/// deterministically (mcbsim report recomputes theory bounds from this).
void print_config_json(std::ostream& os, std::size_t p, std::size_t k,
                       std::size_t n, const std::string& shape,
                       std::uint64_t seed, const std::string& engine,
                       std::optional<std::size_t> rank) {
  os << "\"config\":{\"p\":" << p << ",\"k\":" << k << ",\"n\":" << n
     << ",\"shape\":\"" << util::json_escape(shape) << "\",\"seed\":" << seed
     << ",\"engine\":\"" << util::json_escape(engine) << '"';
  if (rank) os << ",\"rank\":" << *rank;
  os << '}';
}

void print_stats_text(const RunStats& stats, std::ostream& os) {
  util::Table t;
  t.header({"phase", "cycles", "messages"});
  for (const auto& ph : stats.phases) {
    t.row({util::Table::txt(ph.name), util::Table::num(ph.cycles),
           util::Table::num(ph.messages)});
  }
  t.row({util::Table::txt("TOTAL"), util::Table::num(stats.cycles),
         util::Table::num(stats.messages)});
  os << t;
}

/// Shared telemetry flags (sort/select/trace). --trace-out implies --obs:
/// the exporter needs the collectors.
struct ObsOptions {
  bool on = false;
  std::string trace_out;
  std::size_t buckets = 256;
};

ObsOptions parse_obs(const util::Cli& cli) {
  ObsOptions o;
  o.trace_out = cli.get_string("trace-out", "");
  o.buckets = cli.get_uint("obs-buckets", 256);
  o.on = cli.get_bool("obs") || !o.trace_out.empty();
  return o;
}

/// The "obs" member of the run JSON: span summaries (phases included) and
/// the bucketed timeline. All fields are deterministic.
void print_obs_json(std::ostream& os, const obs::Recorder& recorder,
                    const obs::Timeline& timeline) {
  os << "\"obs\":{\"spans\":[";
  const auto sums = recorder.summarize();
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const auto& s = sums[i];
    if (i) os << ',';
    os << "{\"name\":\"" << util::json_escape(s.name)
       << "\",\"count\":" << s.count << ",\"cycles\":" << s.cycles
       << ",\"messages\":" << s.messages << '}';
  }
  os << "],\"spans_dropped\":" << recorder.dropped()
     << ",\"timeline\":{\"bucket_cycles\":" << timeline.bucket_cycles()
     << ",\"total_cycles\":" << timeline.total_cycles()
     << ",\"busy_cycles\":" << timeline.busy_cycles()
     << ",\"idle_cycles\":" << timeline.idle_cycles()
     << ",\"reads\":" << timeline.total_reads()
     << ",\"silent_reads\":" << timeline.total_silent_reads()
     << ",\"multi_reads\":" << timeline.total_multi_reads()
     << ",\"channels\":[";
  const auto& per_channel = timeline.writes_per_channel();
  for (std::size_t c = 0; c < timeline.k(); ++c) {
    if (c) os << ',';
    os << "{\"writes\":" << per_channel[c] << ",\"buckets\":[";
    const auto& buckets = timeline.buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (b) os << ',';
      os << buckets[b].writes[c];
    }
    os << "]}";
  }
  os << "]}}";
}

/// --obs in text: the span table, then the timeline's totals and
/// per-channel writes.
void print_obs_text(std::ostream& os, const obs::Recorder& recorder,
                    const obs::Timeline& timeline) {
  const auto sums = recorder.summarize();
  if (!sums.empty()) {
    util::Table t;
    t.header({"span", "count", "cycles", "messages"});
    for (const auto& s : sums) {
      t.row({util::Table::txt(s.name), util::Table::num(s.count),
             util::Table::num(s.cycles), util::Table::num(s.messages)});
    }
    os << t;
  }
  util::Table t;
  t.header({"timeline", "value"});
  t.row({util::Table::txt("busy cycles"),
         util::Table::num(timeline.busy_cycles())});
  t.row({util::Table::txt("idle cycles"),
         util::Table::num(timeline.idle_cycles())});
  t.row({util::Table::txt("reads"), util::Table::num(timeline.total_reads())});
  t.row({util::Table::txt("silent reads"),
         util::Table::num(timeline.total_silent_reads())});
  const auto& per_channel = timeline.writes_per_channel();
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    std::string name = "C";
    name.append(std::to_string(c + 1)).append(" writes");
    t.row({util::Table::txt(name), util::Table::num(per_channel[c])});
  }
  os << t;
}

std::vector<std::size_t> input_sizes(
    const std::vector<std::vector<Word>>& inputs) {
  std::vector<std::size_t> sizes;
  sizes.reserve(inputs.size());
  for (const auto& in : inputs) sizes.push_back(in.size());
  return sizes;
}

/// Shared --engine flag (sort/select/trace/serve/sweep): both engines
/// expose the same observable behaviour, so every run — checked ones in
/// particular — can be replayed on either.
Engine parse_engine(const util::Cli& cli) {
  const auto engine = cli.get_string("engine", "event");
  if (engine == "reference") return Engine::kReference;
  if (engine == "event") return Engine::kEventDriven;
  throw std::invalid_argument("unknown engine '" + engine +
                              "' (event|reference)");
}

/// --engine for the single-run commands (sort/select/trace/serve), which
/// run on one thread: --threads belongs to sweep alone (its trial-pool
/// width), so here it is an unknown flag — a usage error, not the warning
/// other unread flags get, since a silently ignored thread count would
/// misreport what was measured.
void apply_engine_flags(const util::Cli& cli, SimConfig& cfg) {
  if (cli.has("threads")) {
    throw std::invalid_argument(
        "unknown flag --threads (only sweep takes it; single runs are "
        "serial)");
  }
  cfg.engine = parse_engine(cli);
}

/// --profile's text rendering (sort/select/trace/serve): the `host` member
/// through the report's host renderer, under the "host profile:" line that
/// tools/profile.sh keys on.
void print_host_text(std::ostream& os, const std::string& host_json) {
  os << "\nhost profile:\n"
     << obs::host_markdown(util::json_parse(host_json));
}

/// The observers of one sort/select/trace run, built from its flags —
/// --engine, --check (the conformance checker), --obs/--trace-out (span
/// recorder and channel timeline) and --profile (the `host` member) — and
/// the output they add. A command runs its algorithm on `sink()` and hands
/// the stats to print_json() or print_text(), which writes the result
/// document and returns the exit code.
class RunObservers {
 public:
  /// Applies the flags to `cfg`. `tap` is an extra sink fed the run's event
  /// stream (trace's channel dump); nullptr for none.
  RunObservers(const util::Cli& cli, SimConfig& cfg, TraceSink* tap = nullptr)
      : opts_(parse_obs(cli)), profile_(cli.get_bool("profile")) {
    apply_engine_flags(cli, cfg);
    if (opts_.on) {
      timeline_.emplace(cfg.k, opts_.buckets);
      cfg.span_sink = &recorder_;
    }
    // Observers chain: with --check the checker tees the unmodified event
    // stream into the tee, which fans it out to the tap and (with --obs)
    // the timeline.
    tee_.add(tap);
    if (opts_.on) tee_.add(&*timeline_);
    if (cli.get_bool("check")) checker_.emplace(cfg, tee_.as_sink());
    cfg_ = cfg;
  }

  /// The checker, to arm its bound expectations; nullptr without --check.
  check::ConformanceChecker* checker() {
    return checker_ ? &*checker_ : nullptr;
  }

  /// The sink the run reports to: the head of the observer chain.
  TraceSink* sink() { return checker_ ? &*checker_ : tee_.as_sink(); }

  /// The command's own part of the output: answer and config in JSON, the
  /// answer line and phase table in text.
  using Head = std::function<void(std::ostream&)>;

  /// Finishes the observers on the run's stats and prints `{` head
  /// `,"stats":…` then the "obs", "conformance" and "host" members the
  /// flags ask for `}`. Returns the exit code (see finish()).
  int print_json(const RunStats& stats, const Head& head) {
    const auto problems = finish(stats);
    std::ostream& os = std::cout;
    os << '{';
    head(os);
    os << ",\"stats\":" << obs::run_stats_json(stats);
    if (opts_.on) {
      os << ',';
      print_obs_json(os, recorder_, *timeline_);
    }
    if (checker_) os << ",\"conformance\":" << checker_->report().json();
    if (profile_) os << ",\"host\":" << obs::host_stats_json(stats);
    os << "}\n";
    return exit_code(problems);
  }

  /// As print_json(), in text: head, then each observer's text.
  int print_text(const RunStats& stats, const Head& head) {
    const auto problems = finish(stats);
    std::ostream& os = std::cout;
    head(os);
    if (opts_.on) print_obs_text(os, recorder_, *timeline_);
    if (checker_) os << checker_->report().summary();
    if (profile_) print_host_text(os, obs::host_stats_json(stats));
    return exit_code(problems);
  }

 private:
  /// Finishes the checker and the obs collectors, writes --trace-out, and
  /// returns the span/phase disagreements.
  std::vector<std::string> finish(const RunStats& stats) {
    if (checker_) checker_->finish(stats);
    if (!opts_.on) return {};
    timeline_->finalize(stats.cycles);
    if (!opts_.trace_out.empty()) {
      std::ofstream out(opts_.trace_out);
      if (!out) {
        throw std::invalid_argument("cannot write trace to " +
                                    opts_.trace_out);
      }
      out << obs::chrome_trace_json(stats, cfg_, &recorder_, &*timeline_);
    }
    return recorder_.reconcile(stats);
  }

  /// 1 on a conformance violation or a span/phase disagreement, else 0.
  int exit_code(const std::vector<std::string>& problems) const {
    for (const auto& line : problems) {
      std::cerr << "span reconciliation: " << line << '\n';
    }
    if (checker_ && !checker_->report().ok()) return 1;
    return problems.empty() ? 0 : 1;
  }

  ObsOptions opts_;
  bool profile_;
  SimConfig cfg_;
  obs::Recorder recorder_;
  std::optional<obs::Timeline> timeline_;
  TeeSink tee_;
  std::optional<check::ConformanceChecker> checker_;
};

int cmd_sort(const util::Cli& cli) {
  const auto p = cli.get_uint("p", 16);
  const auto k = cli.get_uint("k", 4);
  const auto n = cli.get_uint("n", 1024);
  const auto shape_name = cli.get_string("shape", "even");
  const auto shape = parse_shape(shape_name);
  const auto seed = cli.get_uint("seed", 1);
  const auto algorithm =
      algo::sort_algorithm_from_string(cli.get_string("algorithm", "auto"));
  const bool json = cli.get_bool("json");

  auto w = util::make_workload(n, p, shape, seed);
  SimConfig cfg{.p = p, .k = k};
  RunObservers observers(cli, cfg);
  if (auto* checker = observers.checker()) {
    checker->expect_sorting_bounds(input_sizes(w.inputs));
  }
  auto res = algo::sort(cfg, w.inputs, {.algorithm = algorithm},
                        observers.sink());
  if (json) {
    return observers.print_json(res.run.stats, [&](std::ostream& os) {
      os << "\"algorithm\":\"" << util::json_escape(algo::to_string(res.used))
         << "\",";
      print_config_json(os, p, k, n, shape_name, seed,
                        cli.get_string("engine", "event"), std::nullopt);
    });
  }
  return observers.print_text(res.run.stats, [&](std::ostream& os) {
    os << "sorted n=" << n << " over MCB(" << p << "," << k << ") with "
       << algo::to_string(res.used) << "\n";
    print_stats_text(res.run.stats, os);
  });
}

int cmd_select(const util::Cli& cli) {
  const auto p = cli.get_uint("p", 16);
  const auto k = cli.get_uint("k", 4);
  const auto n = cli.get_uint("n", 1024);
  const auto shape_name = cli.get_string("shape", "even");
  const auto shape = parse_shape(shape_name);
  const auto seed = cli.get_uint("seed", 1);
  const auto d = cli.get_uint("rank", (n + 1) / 2);
  const bool json = cli.get_bool("json");

  auto w = util::make_workload(n, p, shape, seed);
  if (cli.get_bool("shout-echo")) {
    if (cli.get_bool("check")) {
      std::cerr << "warning: --check applies to MCB runs only; the "
                   "shout-echo model has no cycle-level observer\n";
    }
    auto res = se::se_select_rank(w.inputs, d);
    if (json) {
      std::cout << "{\"value\":" << res.value
                << ",\"activities\":" << res.stats.activities
                << ",\"messages\":" << res.stats.messages << "}\n";
    } else {
      std::cout << "N[" << d << "] = " << res.value << "  ("
                << res.stats.activities << " shout-echo activities, "
                << res.stats.messages << " messages)\n";
    }
    return 0;
  }
  SimConfig cfg{.p = p, .k = k};
  RunObservers observers(cli, cfg);
  if (auto* checker = observers.checker()) {
    checker->expect_selection_bounds(input_sizes(w.inputs), d);
  }
  auto res = algo::select_rank(cfg, w.inputs, d, {}, observers.sink());
  if (json) {
    return observers.print_json(res.stats, [&](std::ostream& os) {
      os << "\"algorithm\":\"selection\",\"value\":" << res.value
         << ",\"filter_phases\":" << res.filter_phases << ',';
      print_config_json(os, p, k, n, shape_name, seed,
                        cli.get_string("engine", "event"), d);
    });
  }
  return observers.print_text(res.stats, [&](std::ostream& os) {
    os << "N[" << d << "] = " << res.value << "  (" << res.filter_phases
       << " filtering phases)\n";
    print_stats_text(res.stats, os);
  });
}

// Online serving mode: one persistent network answers a deterministic
// query stream with batched multi-rank selection (src/serve). The report —
// JSON with --json, Markdown otherwise — carries only model-level fields,
// so it is byte-identical across engines for one seed; tools/ci.sh cmp's
// the event and reference documents. --profile adds the session's `host`
// member, and --obs/--trace-out attach the span/timeline collectors to the
// whole session (the obs fields themselves stay deterministic).
int cmd_serve(const util::Cli& cli) {
  serve::ServeConfig sc;
  sc.sim.p = cli.get_uint("p", 16);
  sc.sim.k = cli.get_uint("k", 4);
  sc.n = cli.get_uint("n", sc.sim.p * 64);
  sc.seed = cli.get_uint("seed", 1);
  sc.queries = cli.get_uint("queries", 64);
  sc.batch = cli.get_uint("batch", 8);
  sc.classes = serve::parse_classes(
      cli.get_string("classes", "rank:4,topk:2,churn:1"));
  sc.verify = cli.get_bool("verify");
  const auto obs_opts = parse_obs(cli);
  const bool profile = cli.get_bool("profile");
  obs::Recorder recorder;
  std::optional<obs::Timeline> timeline;
  if (obs_opts.on) {
    timeline.emplace(sc.sim.k, obs_opts.buckets);
    sc.sim.span_sink = &recorder;
    sc.sink = &*timeline;
  }
  apply_engine_flags(cli, sc.sim);
  const auto rep = serve::run_server(sc);

  // Session-aggregate identity for the obs exporters: the serving loop is
  // many short runs on one network, so the recorder/timeline carry the
  // union of all batch runs (cycle timestamps overlay per batch — the
  // timeline is an across-batches aggregate, not one run's lane chart).
  // Span reconciliation is skipped: it checks a single run's PhaseStats.
  RunStats agg;
  agg.cycles = rep.total_cycles;
  agg.messages = rep.total_messages;
  if (obs_opts.on) {
    timeline->finalize(rep.total_cycles);
    if (!obs_opts.trace_out.empty()) {
      std::ofstream out(obs_opts.trace_out);
      if (!out) {
        throw std::invalid_argument("cannot write trace to " +
                                    obs_opts.trace_out);
      }
      out << obs::chrome_trace_json(agg, sc.sim, &recorder, &*timeline);
    }
  }
  if (cli.get_bool("json")) {
    // Splice the "obs" and "host" members in before the document's closing
    // brace — rep.json() owns the (deterministic) rest of the document.
    std::string doc = rep.json();
    std::ostringstream os;
    if (obs_opts.on) {
      os << ',';
      print_obs_json(os, recorder, *timeline);
    }
    if (profile) os << ",\"host\":" << rep.host_json();
    doc.insert(doc.size() - 1, os.str());
    std::cout << doc << '\n';
  } else {
    std::cout << rep.markdown();
    if (obs_opts.on) print_obs_text(std::cout, recorder, *timeline);
    if (profile) print_host_text(std::cout, rep.host_json());
  }
  return 0;
}

int cmd_psum(const util::Cli& cli) {
  const auto p = cli.get_uint("p", 16);
  const auto k = cli.get_uint("k", 4);
  const auto op_name = cli.get_string("op", "add");
  algo::SumOp op = op_name == "add"   ? algo::SumOp::add()
                   : op_name == "max" ? algo::SumOp::max()
                   : op_name == "min" ? algo::SumOp::min()
                                      : throw std::invalid_argument(
                                            "unknown op (add|max|min)");
  Network net({.p = p, .k = k});
  std::vector<Word> results(p);
  auto prog = [](Proc& self, const algo::SumOp& o, Word& out) -> ProcMain {
    auto res = co_await algo::partial_sums(
        self, static_cast<Word>(self.id() + 1), o, {.with_total = true});
    out = res.self;
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), op, results[i]));
  }
  auto stats = net.run();
  std::cout << "prefix " << op_name << " of 1..p over MCB(" << p << "," << k
            << "): " << stats.cycles << " cycles, " << stats.messages
            << " messages\n";
  for (std::size_t i = 0; i < p; ++i) {
    std::cout << results[i] << (i + 1 < p ? ' ' : '\n');
  }
  return 0;
}

int cmd_trace(const util::Cli& cli) {
  const auto p = cli.get_uint("p", 4);
  const auto n = cli.get_uint("n", p * p * (p - 1));
  const auto seed = cli.get_uint("seed", 3);
  ChannelTrace trace(cli.get_uint("limit", 256));
  auto w = util::make_workload(n, p, util::Shape::kEven, seed);
  SimConfig cfg{.p = p, .k = p};
  RunObservers observers(cli, cfg, &trace);
  if (auto* checker = observers.checker()) {
    checker->expect_sorting_bounds(input_sizes(w.inputs));
  }
  auto res = algo::columnsort_even(cfg, w.inputs, {}, observers.sink());
  return observers.print_text(res.run.stats, [&](std::ostream& os) {
    os << "columnsort on MCB(" << p << "," << p << "), n=" << n << ": "
       << res.run.stats.cycles << " cycles\n"
       << trace.render(p);
  });
}

// Renders the deterministic Markdown report of a previously captured
// `mcbsim sort/select --json` or `mcbsim sweep --json` document.
int cmd_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << '\n';
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::cout << obs::report_markdown(util::json_parse(buf.str()));
  return 0;
}

// Scans a BENCH_*.json artifact for gate objects — any JSON object with an
// "enforced" member, wherever it nests — using the strict parser in
// util/json (the previous grep-based scrape in tools/ci.sh broke on nested
// objects). Exit codes: 0 all gates enforced and passed; 1 an enforced gate
// failed (or the file has no gates at all); 3 unenforced gates present.
int cmd_gates(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << '\n';
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = util::json_parse(buf.str());

  struct Gate {
    std::string where;
    std::string name;
    bool enforced = false;
    bool passed = false;
  };
  std::vector<Gate> gates;
  // Walk the whole document; a "gate" is any object carrying an "enforced"
  // boolean (matches both the named gates array of BENCH_simspeed.json and
  // the single anonymous gate object of BENCH_sweep.json).
  auto walk = [&gates](const auto& self, const util::JsonValue& v,
                       const std::string& where) -> void {
    if (v.is_object()) {
      const auto* enforced = v.find("enforced");
      if (enforced != nullptr &&
          enforced->kind() == util::JsonValue::Kind::kBool) {
        Gate g;
        g.where = where;
        const auto* name = v.find("name");
        g.name = name != nullptr &&
                         name->kind() == util::JsonValue::Kind::kString
                     ? name->as_string()
                     : where;
        g.enforced = enforced->as_bool();
        const auto* passed = v.find("passed");
        g.passed = passed != nullptr &&
                   passed->kind() == util::JsonValue::Kind::kBool &&
                   passed->as_bool();
        gates.push_back(std::move(g));
        return;
      }
      for (const auto& [key, member] : v.members()) {
        self(self, member, where + "." + key);
      }
    } else if (v.is_array()) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        self(self, v.at(i), where + "[" + std::to_string(i) + "]");
      }
    }
  };
  walk(walk, doc, "$");

  if (gates.empty()) {
    std::cerr << "error: no gate objects (no \"enforced\" member) in "
              << path << '\n';
    return 1;
  }
  bool any_failed = false;
  bool any_unenforced = false;
  for (const auto& g : gates) {
    const bool failed = g.enforced && !g.passed;
    any_failed = any_failed || failed;
    any_unenforced = any_unenforced || !g.enforced;
    std::cout << (failed           ? "FAILED    "
                  : !g.enforced    ? "UNENFORCED"
                                   : "PASSED    ")
              << "  " << g.name << "  (" << g.where << ")\n";
  }
  if (any_failed) return 1;
  return any_unenforced ? 3 : 0;
}

// Strict-parses a JSON document and re-serializes it canonically without
// its host telemetry: every member named "host", at any nesting depth (the
// --profile member of a run or serve document, a sweep trial's frame
// counters). What survives is exactly the deterministic model-level
// content, so CI can `cmp` a profiled run against a plain one.
int cmd_strip_host(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << '\n';
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::cout << util::json_serialize_without(util::json_parse(buf.str()),
                                            {"host"})
            << '\n';
  return 0;
}

int cmd_bounds(const util::Cli& cli) {
  const auto p = cli.get_uint("p", 16);
  const auto k = cli.get_uint("k", 4);
  const auto n = cli.get_uint("n", 1024);
  const auto shape = parse_shape(cli.get_string("shape", "even"));
  const auto d = cli.get_uint("d", (n + 1) / 2);
  auto sizes = util::cardinalities(n, p, shape, cli.get_uint("seed", 1));

  util::Table t;
  t.header({"quantity", "value"});
  t.row({util::Table::txt("sorting msg lower (Thm 3)"),
         util::Table::num(theory::sorting_messages_lower(sizes), 1)});
  t.row({util::Table::txt("sorting cyc lower (Cor 3/Thm 5)"),
         util::Table::num(theory::sorting_cycles_lower(sizes, k), 1)});
  t.row({util::Table::txt("selection msg lower (Thm 1)"),
         util::Table::num(theory::selection_messages_lower(sizes), 1)});
  t.row({util::Table::txt("selection msg lower rank d (Thm 2)"),
         util::Table::num(theory::selection_messages_lower_rank(sizes, d),
                          1)});
  t.row({util::Table::txt("selection msg Theta term (Cor 7)"),
         util::Table::num(theory::selection_messages_term(p, k, n), 1)});
  std::cout << t;
  return 0;
}

int cmd_sweep(const util::Cli& cli) {
  harness::Sweep sweep;
  sweep.ps = parse_uint_list(cli.get_string("p", "16"));
  sweep.ks = parse_uint_list(cli.get_string("k", "4"));
  sweep.ns = parse_uint_list(cli.get_string("n", "1024"));
  sweep.shapes.clear();
  for (const auto& s : split_list(cli.get_string("shapes", "even"))) {
    sweep.shapes.push_back(parse_shape(s));
  }
  sweep.algorithms = split_list(cli.get_string("algorithms", "auto"));
  // Reject typos up front instead of failing every trial.
  for (const auto& a : sweep.algorithms) {
    if (a != "select") algo::sort_algorithm_from_string(a);
  }
  sweep.base_seed = cli.get_uint("seed", 1);
  sweep.seeds = cli.get_uint("seeds", 1);
  sweep.engine = parse_engine(cli);
  const auto threads = cli.get_uint("threads", 0);
  const bool json = cli.get_bool("json");
  sweep.check = cli.get_bool("check");
  sweep.obs = cli.get_bool("obs");

  auto run = harness::run_sweep(sweep, {.threads = threads});

  if (json) {
    // Deterministic serialization: byte-identical regardless of --threads.
    std::cout << harness::sweep_json(run);
    return 0;
  }

  util::Table t;
  t.header({"p", "k", "n", "shape", "algorithm", "trials", "failed",
            "cyc mean", "cyc p95", "msg mean", "msg p95", "aux max",
            "cyc/pred", "msg/pred"});
  for (const auto& agg : run.aggregates) {
    t.row({util::Table::num(agg.point.p), util::Table::num(agg.point.k),
           util::Table::num(agg.point.n),
           util::Table::txt(util::to_string(agg.point.shape)),
           util::Table::txt(agg.point.algorithm),
           util::Table::num(agg.trials), util::Table::num(agg.failed),
           util::Table::num(agg.cycles.mean, 1),
           util::Table::num(agg.cycles.p95, 0),
           util::Table::num(agg.messages.mean, 1),
           util::Table::num(agg.messages.p95, 0),
           util::Table::num(agg.peak_aux_words.max, 0),
           util::Table::num(agg.cycles_vs_predicted, 2),
           util::Table::num(agg.messages_vs_predicted, 2)});
  }
  std::cout << t;
  std::size_t failed = 0;
  for (const auto& res : run.results) {
    if (!res.ok()) ++failed;
  }
  std::cout << run.results.size() << " trials over "
            << run.aggregates.size() << " grid points on "
            << run.threads_used << " threads in "
            << static_cast<double>(run.wall_ns) / 1e6 << " ms";
  if (failed > 0) std::cout << " (" << failed << " FAILED)";
  std::cout << "\n";
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    if (!run.results[i].ok()) {
      std::cerr << "trial " << i << ": " << run.results[i].error << "\n";
    }
  }
  return failed == 0 ? 0 : 1;
}

int usage() {
  std::cerr <<
      "usage: mcbsim <sort|select|serve|psum|trace|bounds|sweep|gates|"
      "report|strip-host> [--flags]\n"
      "  sort    --p --k --n [--shape] [--seed] [--algorithm] [--engine]"
      " [--check] [--json]\n"
      "          [--obs] [--trace-out f.json] [--obs-buckets N] [--profile]\n"
      "  select  --p --k --n [--rank] [--shape] [--seed] [--shout-echo]"
      " [--engine] [--check]\n"
      "          [--json] [--obs] [--trace-out f.json] [--obs-buckets N]"
      " [--profile]\n"
      "  serve   --p --k --n [--seed] --queries N"
      " [--classes rank:4,topk:2,churn:1]\n"
      "          [--batch B] [--engine] [--verify] [--json]\n"
      "          [--obs] [--trace-out f.json] [--obs-buckets N] [--profile]\n"
      "          one persistent network answers a seeded query stream;\n"
      "          output is byte-identical across engines per seed\n"
      "  psum    --p --k [--op add|max|min]\n"
      "  trace   --p [--n] [--seed] [--limit] [--engine] [--check] [--obs]"
      " [--trace-out f.json] [--profile]\n"
      "  bounds  --p --k --n [--shape] [--d]\n"
      "  sweep   --p 8,16 --k 2,4 --n 1024,4096 [--shapes even,zipf]\n"
      "          [--algorithms auto,select] [--seeds S] [--seed B]\n"
      "          [--threads N] [--engine event|reference] [--check]"
      " [--obs] [--json]\n"
      "  gates   <bench.json>   exit 0 = all gates enforced+passed,\n"
      "          1 = enforced gate failed, 3 = unenforced gates present\n"
      "  report  <run.json|sweep.json|serve.json>   render a deterministic\n"
      "          Markdown report (phases, spans, sparklines, theory ratios)\n"
      "  strip-host <any.json>  re-serialize canonically without its \"host\"\n"
      "          members, for byte-comparing profiled against plain runs\n"
      "--engine picks the simulator loop (event|reference; both are\n"
      "observably identical). --threads is sweep's trial-pool width (0 =\n"
      "hardware); single runs are serial.\n"
      "--check attaches the model-conformance checker (src/check): exit 1\n"
      "and a violation report on any model-rule breach.\n"
      "--obs collects phase spans and a per-channel timeline; --trace-out\n"
      "writes a Chrome trace-event / Perfetto JSON trace (implies --obs).\n"
      "--profile adds the run's host telemetry (wall time and frame\n"
      "counters) as one \"host\" member (strip-host removes it).\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `gates` and `report` take a positional file path, which the flag
    // grammar of util::Cli does not cover — dispatch them before Cli::parse.
    if (argc >= 2 && std::string(argv[1]) == "gates") {
      if (argc != 3) return usage();
      return cmd_gates(argv[2]);
    }
    if (argc >= 2 && std::string(argv[1]) == "report") {
      if (argc != 3) return usage();
      return cmd_report(argv[2]);
    }
    if (argc >= 2 && std::string(argv[1]) == "strip-host") {
      if (argc != 3) return usage();
      return cmd_strip_host(argv[2]);
    }
    const auto cli = util::Cli::parse(argc, argv);
    int rc;
    if (cli.command() == "sort") {
      rc = cmd_sort(cli);
    } else if (cli.command() == "select") {
      rc = cmd_select(cli);
    } else if (cli.command() == "serve") {
      rc = cmd_serve(cli);
    } else if (cli.command() == "psum") {
      rc = cmd_psum(cli);
    } else if (cli.command() == "trace") {
      rc = cmd_trace(cli);
    } else if (cli.command() == "bounds") {
      rc = cmd_bounds(cli);
    } else if (cli.command() == "sweep") {
      rc = cmd_sweep(cli);
    } else {
      return usage();
    }
    for (const auto& f : cli.unused()) {
      std::cerr << "warning: unused flag --" << f << '\n';
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
