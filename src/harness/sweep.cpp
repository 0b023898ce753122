#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>

#include <optional>

#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "check/conformance.hpp"
#include "harness/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "theory/bounds.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace mcb::harness {

namespace {

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kEventDriven: return "event";
    case Engine::kReference: return "reference";
  }
  return "unknown";
}

/// True when the concatenation outputs[0] + outputs[1] + ... is
/// non-increasing — the library's sort output contract (algo/sort.hpp).
bool is_descending(const std::vector<std::vector<Word>>& outputs) {
  bool have_prev = false;
  Word prev = 0;
  for (const auto& out : outputs) {
    for (Word w : out) {
      if (have_prev && w > prev) return false;
      prev = w;
      have_prev = true;
    }
  }
  return true;
}

void fill_stats(TrialResult& r, const RunStats& stats) {
  r.cycles = stats.cycles;
  r.messages = stats.messages;
  r.peak_aux_words = stats.max_peak_aux();
  r.proc_resumes = stats.proc_resumes;
  r.sim_wall_ns = stats.sim_wall_ns;
  r.frame_allocs = stats.frame_allocs;
  r.frame_bytes = stats.frame_bytes;
}

void fill_spans(TrialResult& r, const obs::Recorder& rec,
                const RunStats& stats) {
  r.spans = rec.summarize();
  const auto problems = rec.reconcile(stats);
  if (!problems.empty()) {
    std::string msg = "span reconciliation failed: " + problems.front();
    if (problems.size() > 1) {
      msg += " (+" + std::to_string(problems.size() - 1) + " more)";
    }
    r.error = r.error.empty() ? msg : r.error + "; " + msg;
  }
}

double mean_ratio(const std::vector<double>& measured,
                  const std::vector<double>& predicted) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (predicted[i] > 0.0) {
      sum += measured[i] / predicted[i];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// Deterministic double rendering for the sweep JSON (identical for
/// identical values, and "0" for non-finite ones, which JSON cannot carry).
std::string fmt(double v) { return util::json_double(v); }

void summary_json(std::ostream& os, const char* name, const Summary& s) {
  os << '"' << name << "\": {\"min\": " << fmt(s.min)
     << ", \"mean\": " << fmt(s.mean) << ", \"max\": " << fmt(s.max)
     << ", \"p50\": " << fmt(s.p50) << ", \"p95\": " << fmt(s.p95) << '}';
}

void point_json(std::ostream& os, const GridPoint& pt) {
  os << "\"p\": " << pt.p << ", \"k\": " << pt.k << ", \"n\": " << pt.n
     << ", \"shape\": \"" << util::json_escape(util::to_string(pt.shape))
     << "\", \"algorithm\": \"" << util::json_escape(pt.algorithm) << '"';
}

}  // namespace

std::vector<GridPoint> Sweep::points() const {
  if (!explicit_points.empty()) return explicit_points;
  std::vector<GridPoint> pts;
  pts.reserve(ps.size() * ks.size() * ns.size() * shapes.size() *
              algorithms.size());
  for (std::size_t p : ps) {
    for (std::size_t k : ks) {
      for (std::size_t n : ns) {
        for (util::Shape shape : shapes) {
          for (const auto& algorithm : algorithms) {
            pts.push_back(GridPoint{p, k, n, shape, algorithm});
          }
        }
      }
    }
  }
  return pts;
}

std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t trial_index) {
  return util::splitmix64(base_seed ^ util::splitmix64(trial_index));
}

std::vector<TrialSpec> expand(const Sweep& sweep) {
  MCB_REQUIRE(sweep.seeds >= 1, "a sweep needs at least one seed per point");
  const auto pts = sweep.points();
  MCB_REQUIRE(!pts.empty(), "a sweep needs at least one grid point");
  std::vector<TrialSpec> specs;
  specs.reserve(pts.size() * sweep.seeds);
  for (std::size_t pi = 0; pi < pts.size(); ++pi) {
    for (std::size_t si = 0; si < sweep.seeds; ++si) {
      TrialSpec spec;
      spec.trial_index = specs.size();
      spec.point_index = pi;
      spec.seed_index = si;
      spec.point = pts[pi];
      spec.seed = trial_seed(sweep.base_seed, spec.trial_index);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

TrialResult run_trial(const TrialSpec& spec, Engine engine, bool check,
                      bool obs) {
  TrialResult r;
  const GridPoint& pt = spec.point;
  try {
    SimConfig cfg{.p = pt.p, .k = pt.k};
    cfg.engine = engine;
    cfg.validate();
    const auto w = util::make_workload(pt.n, pt.p, pt.shape, spec.seed);

    std::optional<check::ConformanceChecker> checker;
    if (check) checker.emplace(cfg);
    TraceSink* sink = check ? &*checker : nullptr;
    std::optional<obs::Recorder> recorder;
    if (obs) {
      recorder.emplace();
      cfg.span_sink = &*recorder;
    }
    std::vector<std::size_t> sizes;
    if (check) {
      sizes.reserve(w.inputs.size());
      for (const auto& in : w.inputs) sizes.push_back(in.size());
    }

    if (pt.algorithm == "select") {
      // Verification target: the true median of the flattened input.
      std::vector<Word> flat;
      flat.reserve(pt.n);
      for (const auto& in : w.inputs) {
        flat.insert(flat.end(), in.begin(), in.end());
      }
      const std::size_t d = (flat.size() + 1) / 2;  // d-th largest
      if (check) checker->expect_selection_bounds(std::move(sizes), d);
      auto res = algo::select_median(cfg, w.inputs, {}, sink);
      fill_stats(r, res.stats);
      if (check) checker->finish(res.stats);
      if (obs) fill_spans(r, *recorder, res.stats);
      r.algorithm_used = "selection";
      r.predicted_cycles = theory::selection_cycles_term(pt.p, pt.k, pt.n);
      r.predicted_messages =
          theory::selection_messages_term(pt.p, pt.k, pt.n);
      auto nth = flat.begin() + static_cast<std::ptrdiff_t>(d - 1);
      std::nth_element(flat.begin(), nth, flat.end(), std::greater<Word>{});
      if (res.value != *nth) {
        r.error = "verification failed: selection returned " +
                  std::to_string(res.value) + ", true median is " +
                  std::to_string(*nth);
      }
    } else {
      if (check) checker->expect_sorting_bounds(std::move(sizes));
      auto res = algo::sort(
          cfg, w.inputs,
          {.algorithm = algo::sort_algorithm_from_string(pt.algorithm)},
          sink);
      fill_stats(r, res.run.stats);
      if (check) checker->finish(res.run.stats);
      if (obs) fill_spans(r, *recorder, res.run.stats);
      r.algorithm_used = algo::to_string(res.used);
      r.predicted_cycles =
          theory::sorting_cycles_term(pt.n, pt.k, w.max_local());
      r.predicted_messages = theory::sorting_messages_term(pt.n);
      // Verify the output is a descending permutation of the input.
      if (!is_descending(res.run.outputs)) {
        r.error = "verification failed: sort output is not descending";
      } else if (util::multiset_fingerprint(res.run.outputs) !=
                 util::multiset_fingerprint(w.inputs)) {
        r.error =
            "verification failed: sort output is not a permutation of the "
            "input";
      }
    }

    if (check && !checker->report().ok()) {
      const auto& rep = checker->report();
      r.conformance_violations = rep.total_violations;
      std::string msg =
          std::string("conformance failed: ") +
          std::to_string(rep.total_violations) +
          " violation(s), first " +
          (rep.violations.empty()
               ? std::string("<unrecorded>")
               : std::string(check::rule_id(rep.violations.front().rule)) +
                     ": " + rep.violations.front().detail);
      r.error = r.error.empty() ? msg : r.error + "; " + msg;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const auto count = static_cast<double>(values.size());
  s.min = values.front();
  s.max = values.back();
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) / count;
  s.p50 = values[obs::nearest_rank(values.size(), 0.50) - 1];
  s.p95 = values[obs::nearest_rank(values.size(), 0.95) - 1];
  return s;
}

SweepRun run_sweep(const Sweep& sweep, const SweepOptions& opts) {
  SweepRun run;
  run.sweep = sweep;
  run.specs = expand(sweep);
  run.results.resize(run.specs.size());
  run.threads_used = resolve_threads(opts.threads, run.specs.size());

  const auto t0 = std::chrono::steady_clock::now();
  // Each worker writes only results[i] for the indices it claims; trials
  // share no other mutable state (see harness/thread_pool.hpp).
  parallel_for_index(run.specs.size(), opts.threads, [&](std::size_t i) {
    run.results[i] =
        run_trial(run.specs[i], sweep.engine, sweep.check, sweep.obs);
  });
  run.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  // Cross-seed aggregation. Trials of one point are contiguous in spec
  // order (point-major expansion).
  const auto pts = sweep.points();
  run.aggregates.reserve(pts.size());
  for (std::size_t pi = 0; pi < pts.size(); ++pi) {
    PointAggregate agg;
    agg.point = pts[pi];
    std::vector<double> cycles, messages, aux;
    std::vector<double> pred_cycles, pred_messages;
    for (std::size_t si = 0; si < sweep.seeds; ++si) {
      const auto& res = run.results[pi * sweep.seeds + si];
      ++agg.trials;
      if (!res.ok()) {
        ++agg.failed;
        continue;
      }
      cycles.push_back(static_cast<double>(res.cycles));
      messages.push_back(static_cast<double>(res.messages));
      aux.push_back(static_cast<double>(res.peak_aux_words));
      pred_cycles.push_back(res.predicted_cycles);
      pred_messages.push_back(res.predicted_messages);
    }
    agg.cycles = summarize(cycles);
    agg.messages = summarize(messages);
    agg.peak_aux_words = summarize(aux);
    agg.cycles_vs_predicted = mean_ratio(cycles, pred_cycles);
    agg.messages_vs_predicted = mean_ratio(messages, pred_messages);
    run.aggregates.push_back(std::move(agg));
  }
  return run;
}

std::string sweep_json(const SweepRun& run) {
  std::ostringstream os;
  os << "{\n  \"sweep\": {\"base_seed\": " << run.sweep.base_seed
     << ", \"seeds\": " << run.sweep.seeds << ", \"engine\": \""
     << engine_name(run.sweep.engine) << "\", \"check\": "
     << (run.sweep.check ? "true" : "false");
  // Emitted only when on, so obs-off output stays byte-identical to
  // pre-telemetry versions of this serializer.
  if (run.sweep.obs) os << ", \"obs\": true";
  os << ", \"points\": " << run.aggregates.size()
     << ", \"trials\": " << run.results.size() << "},\n";

  os << "  \"trials\": [\n";
  for (std::size_t i = 0; i < run.specs.size(); ++i) {
    const auto& spec = run.specs[i];
    const auto& res = run.results[i];
    os << "    {\"trial\": " << spec.trial_index
       << ", \"point\": " << spec.point_index
       << ", \"seed_index\": " << spec.seed_index
       << ", \"seed\": " << spec.seed << ", ";
    point_json(os, spec.point);
    os << ", \"algorithm_used\": \"" << util::json_escape(res.algorithm_used)
       << "\", \"cycles\": " << res.cycles
       << ", \"messages\": " << res.messages
       << ", \"peak_aux_words\": " << res.peak_aux_words
       << ", \"proc_resumes\": " << res.proc_resumes
       << ", \"host\": {\"frame_allocs\": " << res.frame_allocs
       << ", \"frame_bytes\": " << res.frame_bytes << '}'
       << ", \"predicted_cycles\": " << fmt(res.predicted_cycles)
       << ", \"predicted_messages\": " << fmt(res.predicted_messages)
       << ", \"conformance_violations\": " << res.conformance_violations;
    if (run.sweep.obs) {
      os << ", \"spans\": [";
      for (std::size_t s = 0; s < res.spans.size(); ++s) {
        const auto& sp = res.spans[s];
        os << (s == 0 ? "" : ", ") << "{\"name\": \""
           << util::json_escape(sp.name) << "\", \"count\": " << sp.count
           << ", \"cycles\": " << sp.cycles
           << ", \"messages\": " << sp.messages << '}';
      }
      os << ']';
    }
    os << ", \"error\": \"" << util::json_escape(res.error) << "\"}"
       << (i + 1 < run.specs.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  os << "  \"aggregates\": [\n";
  for (std::size_t i = 0; i < run.aggregates.size(); ++i) {
    const auto& agg = run.aggregates[i];
    os << "    {\"point\": " << i << ", ";
    point_json(os, agg.point);
    os << ", \"trials\": " << agg.trials << ", \"failed\": " << agg.failed
       << ", ";
    summary_json(os, "cycles", agg.cycles);
    os << ", ";
    summary_json(os, "messages", agg.messages);
    os << ", ";
    summary_json(os, "peak_aux_words", agg.peak_aux_words);
    os << ", \"cycles_vs_predicted\": " << fmt(agg.cycles_vs_predicted)
       << ", \"messages_vs_predicted\": " << fmt(agg.messages_vs_predicted)
       << '}' << (i + 1 < run.aggregates.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace mcb::harness
