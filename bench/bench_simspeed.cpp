// Simulator-throughput benchmark: the event-driven engine vs the
// scan-the-world reference loop, across (p, k) grids for sorting and
// selection.
//
// Unlike the other bench binaries (which measure the *model's* cycle and
// message complexity), this one measures the *simulator's* wall-clock cost —
// the quantity every future scaling experiment is bounded by. For each grid
// point every engine runs the identical workload kReps times; the row kept
// is the median rep by wall clock (single runs proved too noisy to gate on).
// Each rep is also timed end to end, the way a user waits for it: setup_ns
// is the host time outside Network::run() up to the answer (workload build,
// network construction, install, result hand-back and teardown), run_ns is
// run() itself (= sim_wall_ns), verify_ns checks the answer (sortedness, or
// the median against a sequential selection), and total_ns spans all three.
// The two largest selection points (p=16384 and p=65536, n=4p) skip the
// reference loop: its O(p) per-cycle scans make it minutes-slow there, and
// its correctness standing comes from the equivalence tests, not from being
// re-timed. Correctness of the comparison rests on
// tests/scheduler_equivalence_test.cpp, which pins both engines to
// bit-identical accounting; this binary additionally cross-checks that every
// rep and both engines agree on cycles and messages.
//
// Output: a per-grid-point table (median wall ns, setup and total ms,
// resumes, cycles/sec, frame bytes per processor, speedups) and a
// machine-readable BENCH_simspeed.json (path overridable as argv[1]) so future PRs can track the
// simulator-performance trajectory. Field names of earlier revisions are
// preserved; medians slot into the old single-run fields. Each run row also
// carries ns_per_proc_cycle = sim_wall_ns / (p * cycles), the
// size-normalized cost that makes rows of different geometry comparable,
// ns_per_message = sim_wall_ns / messages, the host cost per unit of work
// the model counts, and {median, min, max} over the reps of setup_ns,
// run_ns, verify_ns and total_ns.
//
// Three gates, each failing the binary when enforced:
//   * event_vs_reference — the event engine must beat the reference loop
//     >= 5x on the skip-heavy selection p=4096 k=4 point (since PR 1).
//   * frames_vs_baseline — the same point's event wall-clock must beat the
//     recorded baseline below >= 1.3x, and its run must allocate at most p + 0
//     coroutine frames: each processor's program, with every sub-protocol
//     a step awaiter inside it.
//   * setup_linear — setup must scale linearly in p: on the event
//     selection rows, setup_ns / p at p=65536 must stay within 2x of its
//     value at p=4096. An O(p^2) install measured 11x there, so host noise
//     cannot fake a pass.
//
// One extra row rides outside the gate grid: selection p=2^20 (n=4p),
// event engine only, a single rep — the megaprocessor data point. It only
// runs when the p=65536 event median stayed within a wall-clock budget
// (small CI runners would otherwise spend tens of minutes on it);
// when skipped, the JSON says so loudly in a top-level "big_row" object
// rather than silently omitting the row. MCB_SIMSPEED_FORCE_BIG=1 forces it
// regardless of budget.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "bench_common.hpp"
#include "obs/clock.hpp"
#include "seq/selection.hpp"
#include "util/workload.hpp"

namespace mcb::bench {
namespace {

constexpr std::size_t kReps = 5;

// Event-engine wall clock of selection p=4096 k=4 recorded in
// BENCH_simspeed.json at commit 59e879e, before the wake wheel. The
// frames_vs_baseline gate measures against this fixed point.
constexpr std::uint64_t kPr2EventWallNs = 206128073;
constexpr double kFramesRequiredSpeedup = 1.3;
// Frames a selection run may allocate beyond its p programs.
constexpr std::uint64_t kFrameSlack = 0;

// setup_linear: setup_ns / p at the large point over the small one.
constexpr std::size_t kSetupSmallP = 4096;
constexpr std::size_t kSetupLargeP = 65536;
constexpr double kSetupMaxPerProcRatio = 2.0;

// The p=2^20 row runs only when the p=65536 event median wall clock came
// in under this budget (the big row is ~16x that work), or when
// MCB_SIMSPEED_FORCE_BIG=1 overrides the guard.
constexpr std::uint64_t kBigRowBudgetWallNs = 2'000'000'000;  // 2 s

struct GridPoint {
  std::string bench;  // "sort" | "selection"
  std::size_t p, k, n;
  bool skip_reference = false;  // the two huge selection rows
};

/// One rep: the run's statistics and the host time a user waits for.
struct Rep {
  RunStats stats;
  std::uint64_t setup_ns = 0;   // outside run(), up to the answer
  std::uint64_t verify_ns = 0;  // checking the answer
  std::uint64_t total_ns = 0;   // setup + run + verify
};

/// Median, min and max of one host-time field over the reps.
struct Spread {
  std::uint64_t median = 0, min = 0, max = 0;
};

Spread spread(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? Spread{} : Spread{v[v.size() / 2], v.front(), v.back()};
}

struct EngineResult {
  RunStats median;                     // the median rep by sim_wall_ns
  std::vector<std::uint64_t> wall_ns;  // all reps, run order
  Spread setup_ns, run_ns, verify_ns, total_ns;
};

struct Row {
  GridPoint pt;
  EngineResult ref;    // scan-the-world baseline; empty when skip_reference
  EngineResult event;  // wake-queue engine
  double speedup() const {  // event vs reference; 0 when reference skipped
    return event.median.sim_wall_ns == 0
               ? 0.0
               : static_cast<double>(ref.median.sim_wall_ns) /
                     static_cast<double>(event.median.sim_wall_ns);
  }
};

// The p=2^20 event-only row and the budget decision behind it. Always
// serialized into the JSON (as "big_row") so a skip is loud, not silent.
struct BigRow {
  GridPoint pt;
  bool ran = false;
  bool forced = false;             // MCB_SIMSPEED_FORCE_BIG=1 was set
  std::uint64_t gate_wall_ns = 0;  // p=65536 event median (budget key)
  EngineResult event;              // a single rep when ran
};

const char* engine_json_name(Engine e) {
  switch (e) {
    case Engine::kReference: return "reference";
    case Engine::kEventDriven: return "event";
  }
  return "unknown";
}

Rep run_point(const GridPoint& pt, Engine engine) {
  SimConfig cfg{.p = pt.p, .k = pt.k};
  cfg.engine = engine;
  obs::Clock& clk = obs::default_clock();
  Rep r;
  const std::uint64_t t0 = clk.now_ns();
  const auto w = util::make_workload(pt.n, pt.p, util::Shape::kEven, 42);
  std::uint64_t t1 = 0;
  if (pt.bench == "sort") {
    auto res = algo::sort(cfg, w.inputs);
    t1 = clk.now_ns();
    check_sorted(res.run.outputs);
    r.stats = std::move(res.run.stats);
  } else {
    const auto res = algo::select_median(cfg, w.inputs);
    t1 = clk.now_ns();
    std::vector<Word> all;
    all.reserve(pt.n);
    for (const auto& in : w.inputs) all.insert(all.end(), in.begin(), in.end());
    if (res.value != seq::kth_largest(all, (all.size() + 1) / 2)) {
      std::cerr << "BENCH FAILURE: selection p=" << pt.p
                << " returned a wrong median\n";
      std::abort();
    }
    r.stats = res.stats;
  }
  const std::uint64_t t2 = clk.now_ns();
  r.setup_ns = t1 - t0 - r.stats.sim_wall_ns;
  r.verify_ns = t2 - t1;
  r.total_ns = t2 - t0;
  return r;
}

EngineResult run_reps(const GridPoint& pt, Engine engine) {
  std::vector<RunStats> reps;
  reps.reserve(kReps);
  std::vector<std::uint64_t> setup, verify, total;
  for (std::size_t i = 0; i < kReps; ++i) {
    Rep rep = run_point(pt, engine);
    setup.push_back(rep.setup_ns);
    verify.push_back(rep.verify_ns);
    total.push_back(rep.total_ns);
    reps.push_back(std::move(rep.stats));
    if (reps.back().cycles != reps.front().cycles ||
        reps.back().messages != reps.front().messages) {
      std::cerr << "BENCH FAILURE: nondeterministic accounting across reps "
                   "at p="
                << pt.p << " k=" << pt.k << "\n";
      std::abort();
    }
  }
  EngineResult r;
  for (const auto& s : reps) r.wall_ns.push_back(s.sim_wall_ns);
  r.setup_ns = spread(std::move(setup));
  r.run_ns = spread(r.wall_ns);
  r.verify_ns = spread(std::move(verify));
  r.total_ns = spread(std::move(total));
  auto by_wall = reps;  // median by wall clock; ties keep run order
  std::sort(by_wall.begin(), by_wall.end(),
            [](const RunStats& a, const RunStats& b) {
              return a.sim_wall_ns < b.sim_wall_ns;
            });
  r.median = by_wall[by_wall.size() / 2];
  return r;
}

/// sim_wall_ns normalized by the work simulated: host nanoseconds per
/// processor-cycle. Comparable across grid points of any size.
double ns_per_proc_cycle(const GridPoint& pt, const RunStats& s) {
  const double work = static_cast<double>(pt.p) * static_cast<double>(s.cycles);
  return work == 0.0 ? 0.0 : static_cast<double>(s.sim_wall_ns) / work;
}

/// sim_wall_ns per channel write: host nanoseconds per message, the work
/// the model counts.
double ns_per_message(const RunStats& s) {
  return s.messages == 0 ? 0.0
                         : static_cast<double>(s.sim_wall_ns) /
                               static_cast<double>(s.messages);
}

/// Coroutine frame bytes per processor: one program frame when every
/// sub-protocol is a step awaiter.
double frame_bytes_per_proc(const GridPoint& pt, const RunStats& s) {
  return static_cast<double>(s.frame_bytes) / static_cast<double>(pt.p);
}

/// The headline's event median against the recorded baseline wall clock.
double baseline_speedup(const Row& headline) {
  return headline.event.median.sim_wall_ns == 0
             ? 0.0
             : static_cast<double>(kPr2EventWallNs) /
                   static_cast<double>(headline.event.median.sim_wall_ns);
}

/// setup_ns per processor at a grid point: the setup_linear gate's unit.
double setup_ns_per_proc(const Row& r) {
  return static_cast<double>(r.event.setup_ns.median) /
         static_cast<double>(r.pt.p);
}

std::string json_spread(const Spread& s) {
  std::ostringstream os;
  os << "{\"median\": " << s.median << ", \"min\": " << s.min
     << ", \"max\": " << s.max << "}";
  return os.str();
}

/// One run as rolled up at a grid point (reference vs skipped, a single
/// rep vs kReps) never makes it into the artifact shape: every run row has
/// the same fields no matter how it was produced.
std::string json_run_row(const GridPoint& pt, const EngineResult& er,
                         Engine engine) {
  const RunStats& s = er.median;
  std::ostringstream os;
  os << "    {\"bench\": \"" << pt.bench << "\", \"p\": " << pt.p
     << ", \"k\": " << pt.k << ", \"n\": " << pt.n << ", \"engine\": \""
     << engine_json_name(engine) << "\""
     << ", \"cycles\": " << s.cycles << ", \"messages\": " << s.messages
     << ", \"sim_wall_ns\": " << s.sim_wall_ns
     << ", \"ns_per_proc_cycle\": " << ns_per_proc_cycle(pt, s)
     << ", \"ns_per_message\": " << ns_per_message(s)
     << ", \"proc_resumes\": " << s.proc_resumes
     << ", \"cycles_per_sec\": " << s.cycles_per_sec
     << ", \"frame_allocs\": " << s.frame_allocs
     << ", \"frame_bytes_per_proc\": " << frame_bytes_per_proc(pt, s)
     << ", \"setup_ns\": " << json_spread(er.setup_ns)
     << ", \"run_ns\": " << json_spread(er.run_ns)
     << ", \"verify_ns\": " << json_spread(er.verify_ns)
     << ", \"total_ns\": " << json_spread(er.total_ns)
     << ", \"wall_ns_reps\": [";
  for (std::size_t i = 0; i < er.wall_ns.size(); ++i) {
    os << (i ? ", " : "") << er.wall_ns[i];
  }
  os << "]}";
  return os.str();
}

void write_json(const std::vector<Row>& rows, const Row& headline,
                const Row& setup_large, const BigRow& huge,
                const std::string& path) {
  const double frames_speedup = baseline_speedup(headline);
  const std::uint64_t frame_allocs = headline.event.median.frame_allocs;
  const bool frames_passed = frames_speedup >= kFramesRequiredSpeedup &&
                             frame_allocs <= headline.pt.p + kFrameSlack;
  const bool ref_passed = headline.speedup() >= 5.0;
  const double setup_ratio =
      setup_ns_per_proc(setup_large) / setup_ns_per_proc(headline);
  const bool setup_passed = setup_ratio <= kSetupMaxPerProcRatio;

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::abort();
  }
  out << "{\n  \"benchmark\": \"simspeed\",\n  \"reps\": " << kReps
      << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].pt.skip_reference) {
      out << json_run_row(rows[i].pt, rows[i].ref, Engine::kReference)
          << ",\n";
    }
    out << json_run_row(rows[i].pt, rows[i].event, Engine::kEventDriven)
        << (i + 1 < rows.size() || huge.ran ? ",\n" : "\n");
  }
  if (huge.ran) {
    out << json_run_row(huge.pt, huge.event, Engine::kEventDriven) << "\n";
  }
  // The big row's disposition, run or skipped — a reader diffing artifacts
  // across machines sees *why* the p=2^20 row is absent, not just that it
  // is. (No "enforced" member here: the gates array carries the matching
  // big_row_p2_20 coverage entry that `mcbsim gates` scans.)
  out << "  ],\n  \"big_row\": {\"bench\": \"" << huge.pt.bench
      << "\", \"p\": " << huge.pt.p << ", \"k\": " << huge.pt.k
      << ", \"n\": " << huge.pt.n << ", \"engine\": \"event\", \"reps\": 1"
      << ", \"status\": \"" << (huge.ran ? "run" : "SKIPPED")
      << "\", \"budget_wall_ns\": " << kBigRowBudgetWallNs
      << ", \"p65536_event_wall_ns\": " << huge.gate_wall_ns
      << ", \"forced\": " << (huge.forced ? "true" : "false");
  if (!huge.ran) {
    out << ", \"reason\": \"p=65536 event median wall exceeds the budget "
           "on this machine; set MCB_SIMSPEED_FORCE_BIG=1 to run it "
           "anyway\"";
  }
  out << "},\n  \"speedups\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"bench\": \"" << rows[i].pt.bench
        << "\", \"p\": " << rows[i].pt.p << ", \"k\": " << rows[i].pt.k
        << ", \"speedup\": " << rows[i].speedup() << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"gates\": [\n"
      << "    {\"name\": \"event_vs_reference\", \"bench\": \"selection\", "
         "\"p\": 4096, \"k\": 4, \"required_speedup\": 5.0, \"measured\": "
      << headline.speedup() << ", \"enforced\": true, \"passed\": "
      << (ref_passed ? "true" : "false") << "},\n"
      << "    {\"name\": \"frames_vs_baseline\", \"bench\": \"selection\", "
         "\"p\": 4096, \"k\": 4, \"baseline_event_wall_ns\": "
      << kPr2EventWallNs
      << ", \"median_event_wall_ns\": " << headline.event.median.sim_wall_ns
      << ", \"required_speedup\": " << kFramesRequiredSpeedup
      << ", \"measured\": " << frames_speedup
      << ", \"max_frame_allocs\": " << headline.pt.p + kFrameSlack
      << ", \"frame_allocs\": " << frame_allocs
      << ", \"enforced\": true, \"passed\": "
      << (frames_passed ? "true" : "false") << "},\n"
      << "    {\"name\": \"setup_linear\", \"bench\": \"selection\", "
         "\"k\": 4, \"small_p\": "
      << kSetupSmallP << ", \"large_p\": " << kSetupLargeP
      << ", \"small_setup_ns_per_proc\": " << setup_ns_per_proc(headline)
      << ", \"large_setup_ns_per_proc\": " << setup_ns_per_proc(setup_large)
      << ", \"max_ratio\": " << kSetupMaxPerProcRatio
      << ", \"measured\": " << setup_ratio
      << ", \"enforced\": true, \"passed\": "
      << (setup_passed ? "true" : "false") << "},\n"
      // Coverage gate for the p=2^20 row: when the budget guard skipped it,
      // this stub reports enforced=false so `mcbsim gates` exits 3 and the
      // missing megaprocessor data point is surfaced, not silently absent.
      << "    {\"name\": \"big_row_p2_20\", \"bench\": \"" << huge.pt.bench
      << "\", \"p\": " << huge.pt.p << ", \"k\": " << huge.pt.k
      << ", \"budget_wall_ns\": " << kBigRowBudgetWallNs
      << ", \"p65536_event_wall_ns\": " << huge.gate_wall_ns
      << ", \"enforced\": " << (huge.ran ? "true" : "false")
      << ", \"passed\": " << (huge.ran ? "true" : "false") << "}\n"
      << "  ]\n}\n";
}

}  // namespace
}  // namespace mcb::bench

int main(int argc, char** argv) {
  using namespace mcb;
  using namespace mcb::bench;

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_simspeed.json";

  // Sort stresses dense cycles (most processors participate every cycle);
  // selection stresses the wake queue and the idle-cycle fast-forward (at
  // p/k = 1024 nearly every processor is asleep at any instant —
  // the acceptance workload for the event engine). The two skip_reference
  // rows are too large for the reference loop's O(p) per-cycle scans. The
  // dense sort row (auto = columnsort-even, 256 elements per processor) is
  // hostbench's sort_dense shape: nearly all of its cycles are Columnsort's
  // fixed gather, transformation and redistribution windows.
  const std::vector<GridPoint> grid = {
      {"sort", 64, 8, 256},
      {"sort", 256, 16, 1024},
      {"sort", 1024, 32, 4096},
      {"sort", 1024, 32, 262144},
      {"selection", 256, 4, 1024},
      {"selection", 1024, 4, 4096},
      {"selection", 4096, 4, 16384},
      {"selection", 1024, 32, 4096},
      {"selection", 16384, 4, 65536, /*skip_reference=*/true},
      {"selection", 65536, 4, 262144, /*skip_reference=*/true},
  };

  std::vector<Row> rows;
  section(
      "simulator throughput: event-driven engine vs scan-the-world "
      "reference");
  std::cout << "median of " << kReps << " reps per engine per point\n";
  util::Table t;
  t.header({"bench", "p", "k", "n", "cycles", "ref wall ms", "event wall ms",
            "event setup ms", "event total ms", "event resumes",
            "event cyc/s", "event ns/msg", "frame B/proc", "ref/event"});
  for (const auto& pt : grid) {
    Row r;
    r.pt = pt;
    if (!pt.skip_reference) r.ref = run_reps(pt, Engine::kReference);
    r.event = run_reps(pt, Engine::kEventDriven);
    const bool ref_agrees =
        pt.skip_reference ||
        (r.ref.median.cycles == r.event.median.cycles &&
         r.ref.median.messages == r.event.median.messages);
    if (!ref_agrees) {
      std::cerr << "BENCH FAILURE: engines disagree on accounting at p="
                << pt.p << " k=" << pt.k << "\n";
      std::abort();
    }
    t.row({util::Table::txt(pt.bench), util::Table::num(pt.p),
           util::Table::num(pt.k), util::Table::num(pt.n),
           util::Table::num(r.event.median.cycles),
           pt.skip_reference
               ? util::Table::txt("-")
               : util::Table::num(
                     static_cast<double>(r.ref.median.sim_wall_ns) / 1e6, 2),
           util::Table::num(
               static_cast<double>(r.event.median.sim_wall_ns) / 1e6, 2),
           util::Table::num(
               static_cast<double>(r.event.setup_ns.median) / 1e6, 2),
           util::Table::num(
               static_cast<double>(r.event.total_ns.median) / 1e6, 2),
           util::Table::num(r.event.median.proc_resumes),
           util::Table::num(r.event.median.cycles_per_sec, 0),
           util::Table::num(ns_per_message(r.event.median), 1),
           util::Table::num(frame_bytes_per_proc(pt, r.event.median), 0),
           pt.skip_reference ? util::Table::txt("-")
                             : util::Table::num(r.speedup(), 2)});
    rows.push_back(std::move(r));
  }
  std::cout << t;

  // The k=4 selection rows carry the gates: p=4096 is the
  // event_vs_reference and frames_vs_baseline headline and setup_linear's small
  // point; p=65536 is setup_linear's large point and the big-row budget key.
  const Row* headline = nullptr;
  const Row* big = nullptr;
  for (const auto& r : rows) {
    if (r.pt.bench != "selection" || r.pt.k != 4) continue;
    if (r.pt.p == kSetupSmallP) headline = &r;
    if (r.pt.p == kSetupLargeP) big = &r;
  }
  if (headline == nullptr || big == nullptr) {
    std::cerr << "BENCH FAILURE: gate grid point missing\n";
    return 1;
  }

  // The p=2^20 row: event engine only, one rep, behind the wall-clock
  // budget so small CI runners are not stuck simulating a megaprocessor
  // network. The skip is recorded in the JSON, never silent.
  BigRow huge;
  huge.pt = {"selection", std::size_t{1} << 20, 4, std::size_t{4} << 20,
             /*skip_reference=*/true};
  huge.gate_wall_ns = big->event.median.sim_wall_ns;
  const char* force_env = std::getenv("MCB_SIMSPEED_FORCE_BIG");
  huge.forced =
      force_env != nullptr && *force_env != '\0' && *force_env != '0';
  if (huge.forced || huge.gate_wall_ns <= kBigRowBudgetWallNs) {
    std::cout << "\nrunning the p=2^20 selection row (event only, "
                 "1 rep)...\n";
    Rep rep = run_point(huge.pt, Engine::kEventDriven);
    huge.event.wall_ns.push_back(rep.stats.sim_wall_ns);
    huge.event.setup_ns = spread({rep.setup_ns});
    huge.event.run_ns = spread(huge.event.wall_ns);
    huge.event.verify_ns = spread({rep.verify_ns});
    huge.event.total_ns = spread({rep.total_ns});
    huge.event.median = std::move(rep.stats);
    huge.ran = true;
    std::cout << "selection p=2^20 k=4 event: "
              << static_cast<double>(huge.event.median.sim_wall_ns) / 1e6
              << " ms, " << huge.event.median.cycles << " cycles, "
              << ns_per_proc_cycle(huge.pt, huge.event.median)
              << " ns/proc-cycle, setup "
              << static_cast<double>(huge.event.setup_ns.median) / 1e6
              << " ms, total "
              << static_cast<double>(huge.event.total_ns.median) / 1e6
              << " ms\n";
  } else {
    std::cout << "\nSKIPPED the p=2^20 selection row: p=65536 event "
                 "median wall "
              << huge.gate_wall_ns << " ns exceeds the "
              << kBigRowBudgetWallNs
              << " ns budget (set MCB_SIMSPEED_FORCE_BIG=1 to force)\n";
  }

  write_json(rows, *headline, *big, huge, json_path);
  std::cout << "\nwrote " << json_path << "\n";

  // Every gate is evaluated and printed; any enforced miss fails the binary.
  int rc = 0;

  // Gate 1 (since PR 1): the skip-heavy selection workload at p=4096, k=4
  // must run at least 5x faster under the event engine than the reference.
  std::cout << "selection p=4096 k=4 event-vs-reference speedup: "
            << headline->speedup() << "x (gate >= 5)\n";
  if (headline->speedup() < 5.0) {
    std::cerr << "BENCH FAILURE: expected >= 5x speedup on selection "
                 "p=4096 k=4, measured "
              << headline->speedup() << "x\n";
    rc = 1;
  }

  // Gate 2: the event engine must beat the recorded baseline wall clock
  // >= 1.3x, and the run must allocate no frame beyond its p programs.
  const double frames_speedup = baseline_speedup(*headline);
  const std::uint64_t frame_allocs = headline->event.median.frame_allocs;
  const std::uint64_t max_frames = headline->pt.p + kFrameSlack;
  std::cout << "selection p=4096 k=4 vs recorded baseline: " << frames_speedup
            << "x (gate >= " << kFramesRequiredSpeedup << "), frame allocs "
            << frame_allocs << " (gate <= " << max_frames << ")\n";
  if (frames_speedup < kFramesRequiredSpeedup || frame_allocs > max_frames) {
    std::cerr << "BENCH FAILURE: frames_vs_baseline gate missed on selection "
                 "p=4096 k=4 (speedup "
              << frames_speedup << "x, " << frame_allocs << " frames)\n";
    rc = 1;
  }

  // Gate 3: setup is O(p). An O(p^2) install measured 11x here.
  const double setup_ratio =
      setup_ns_per_proc(*big) / setup_ns_per_proc(*headline);
  std::cout << "selection k=4 setup ns/proc at p=" << kSetupLargeP << " vs p="
            << kSetupSmallP << ": " << setup_ns_per_proc(*big) << " vs "
            << setup_ns_per_proc(*headline) << " = " << setup_ratio
            << "x (gate <= " << kSetupMaxPerProcRatio << ")\n";
  if (setup_ratio > kSetupMaxPerProcRatio) {
    std::cerr << "BENCH FAILURE: setup_linear gate missed (setup ns/proc "
                 "grew "
              << setup_ratio << "x from p=" << kSetupSmallP
              << " to p=" << kSetupLargeP << ")\n";
    rc = 1;
  }
  return rc;
}
