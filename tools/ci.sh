#!/usr/bin/env bash
# CI driver: builds the optimised and sanitizer configurations and runs
# the full test suite under each. The coroutine scheduler
# (src/mcb/scheduler.*, Network::run_event_loop) and the step awaiters that
# live in program frames (Proc::StepAwaiter) are pointer-heavy and
# lifetime-sensitive, so every change is exercised under ASan+UBSan, not
# just the optimised build. A processor's program is its only coroutine
# frame, carved from its network's program-frame region, which reset()
# poisons under ASan, so a frame used after its run is reported.
#
# Static analysis rides along in three places: tools/lint.sh (mcblint, the
# repo-aware analyzer with rules MCB-L1..L3, L6, plus the clang-tidy
# profile) runs against the release tree's compile_commands.json with the
# same 0/1/3 exit discipline as `mcbsim gates` (3 = a tool could not run
# here — loud warning, not silent pass); every preset leg re-runs that
# preset's own mcblint binary and cmp's two --json runs (the linter is held
# to the same byte-determinism contract as the engines it audits); and a
# ThreadSanitizer build runs the harness suite — the sweep's trial pool is
# the one multi-threaded subsystem — plus a checked sweep smoke.
#
# The release leg runs its unit suite 20 times over (ctest --repeat
# until-fail:20, in parallel), so a host-shape race cannot hide behind a
# single lucky pass.
#
# Each suite leg also cmp's the event and reference engines on a dense
# columnsort (the trace event stream, and the stripped JSON of the checked
# p=1024, k=32 dense sort), where nearly every cycle is a window beat, and
# the stripped JSON of selection, uneven, central, rank-sort, merge-sort,
# virtual, recursive and serve runs.
#
# Each suite leg also smokes the telemetry layer end-to-end: --obs runs
# (span reconciliation is a hard failure), a --trace-out export, and the
# `mcbsim report` determinism contract (byte-identical output across
# independent invocations and sweep thread counts, enforced with cmp).
#
# After the suites, the bench gates run on the release build. Every
# BENCH_*.json records its gates with an "enforced" flag (a gate is
# unenforced when the machine cannot express it, e.g. the parallel-sweep
# speedup on < 4 hardware threads). Gate checking is the `mcbsim gates` subcommand (a strict JSON
# walk, not a grep): enforced-gate failures fail this script; unenforced
# gates fail it too on machines with >= 4 hardware threads (where every
# gate is expressible) and are surfaced as a visible WARNING on narrower
# ones instead of silently recording "enforced": false.
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
WARNINGS=0

# Host-capability banner: the one thread-scaling bench gate (bench_sweep's
# 3x parallel-sweep speedup) arms only on >= 4 hardware threads, and the
# p=2^20 big row only inside its wall-clock budget — say up front which
# discipline this machine is held to, so a log reader can interpret
# UNENFORCED rows without guessing at the hardware.
HW_THREADS="$(nproc)"
echo "=== host capability ==="
echo "hardware threads: $HW_THREADS"
if [ "$HW_THREADS" -ge 4 ]; then
  echo "bench gate policy: the sweep thread-scaling gate is ENFORCED; an" \
       "unenforced gate fails CI unless it is the budget-gated" \
       "big_row_p2_20 coverage stub (which warns)"
else
  echo "bench gate policy: the sweep thread-scaling gate is NOT" \
       "enforceable here (< 4 hardware threads); unenforced gates surface" \
       "as WARNINGs"
fi

run_preset() {
  local preset="$1"
  local builddir="$2"
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] test ==="
  if [ "$preset" = release ]; then
    ctest --preset release --repeat until-fail:20 -j "$JOBS"
  else
    ctest --preset "$preset"
  fi
  # Smoke the parallel sweep harness end-to-end through the CLI: a small
  # grid on several workers with the conformance checker attached, plus the
  # determinism contract (the JSON output must not depend on the thread
  # count). Data races in the pool itself are the dedicated TSan leg's job
  # (below); this pass covers lifetime handling under ASan+UBSan.
  echo "=== [$preset] sweep smoke ==="
  "$builddir/tools/mcbsim" sweep --p 4,8 --k 2 --n 64,128 \
    --shapes even,random --algorithms auto,select --seeds 2 --threads 4 \
    --check
  "$builddir/tools/mcbsim" sweep --p 8 --k 2 --n 256 --algorithms select \
    --seeds 3 --threads 1 --json > "$builddir/sweep_t1.json"
  "$builddir/tools/mcbsim" sweep --p 8 --k 2 --n 256 --algorithms select \
    --seeds 3 --threads 4 --json > "$builddir/sweep_t4.json"
  cmp "$builddir/sweep_t1.json" "$builddir/sweep_t4.json"
  # Telemetry smoke: --obs runs reconcile spans against PhaseStats (non-zero
  # exit on disagreement), --trace-out must produce a file, and the Markdown
  # report of a logical run must be byte-identical across independent
  # process invocations — the report reads no host-side timing, and cmp
  # holds it to that.
  echo "=== [$preset] telemetry smoke ==="
  "$builddir/tools/mcbsim" sort --p 16 --k 4 --n 1024 --obs \
    --trace-out "$builddir/obs_trace.json" > /dev/null
  test -s "$builddir/obs_trace.json"
  "$builddir/tools/mcbsim" select --p 16 --k 4 --n 1024 --obs --json \
    > "$builddir/obs_run_a.json"
  "$builddir/tools/mcbsim" select --p 16 --k 4 --n 1024 --obs --json \
    > "$builddir/obs_run_b.json"
  "$builddir/tools/mcbsim" report "$builddir/obs_run_a.json" \
    > "$builddir/obs_report_a.md"
  "$builddir/tools/mcbsim" report "$builddir/obs_run_b.json" \
    > "$builddir/obs_report_b.md"
  cmp "$builddir/obs_report_a.md" "$builddir/obs_report_b.md"
  # Sweep telemetry keeps the thread-count determinism contract.
  "$builddir/tools/mcbsim" sweep --p 8 --k 2 --n 128 \
    --algorithms auto,select --seeds 2 --obs --threads 1 --json \
    > "$builddir/obs_sweep_t1.json"
  "$builddir/tools/mcbsim" sweep --p 8 --k 2 --n 128 \
    --algorithms auto,select --seeds 2 --obs --threads 4 --json \
    > "$builddir/obs_sweep_t4.json"
  cmp "$builddir/obs_sweep_t1.json" "$builddir/obs_sweep_t4.json"
  "$builddir/tools/mcbsim" report "$builddir/obs_sweep_t1.json" > /dev/null
  # Serving smoke: a persistent network answers a mixed query stream with
  # every answer cross-checked against host-side ground truth (--verify),
  # then the report determinism contract — the serve JSON carries only
  # model-level fields, so one seed must produce byte-identical documents
  # whichever engine answers it.
  echo "=== [$preset] serve smoke ==="
  "$builddir/tools/mcbsim" serve --p 16 --k 4 --n 1024 --queries 48 \
    --batch 8 --seed 7 --verify > /dev/null
  "$builddir/tools/mcbsim" serve --p 16 --k 4 --n 1024 --queries 48 \
    --batch 8 --seed 7 --json > "$builddir/serve_event.json"
  "$builddir/tools/mcbsim" serve --p 16 --k 4 --n 1024 --queries 48 \
    --batch 8 --seed 7 --engine reference --json \
    > "$builddir/serve_reference.json"
  cmp "$builddir/serve_event.json" "$builddir/serve_reference.json"
  # Burst smoke: Columnsort's gather, transformations and redistribution
  # run as multi-cycle windows (Proc::window), which the event engine
  # advances in its drain, or runs as dense stretches straight from the
  # window blocks, and the reference engine advances in its resume scan.
  # A dense columnsort must print the same cycle-by-cycle event stream
  # under both, and the p=1024, k=32 dense sort the same model output,
  # proc_resumes included, once the engine's own name is blanked: checked
  # (stretches with the checker's trace sink attached) and plain (the
  # sink-less stretches every benchmark runs).
  echo "=== [$preset] burst smoke (event vs reference) ==="
  for engine in event reference; do
    "$builddir/tools/mcbsim" trace --p 16 --n 4096 --limit 1000000 \
      --engine "$engine" > "$builddir/burst_trace_$engine.txt"
    for mode in check plain; do
      flags=(--json --engine "$engine")
      if [[ $mode == check ]]; then flags+=(--check); fi
      "$builddir/tools/mcbsim" sort --p 1024 --k 32 --n 262144 "${flags[@]}" \
        > "$builddir/burst_${mode}_$engine.json"
      "$builddir/tools/mcbsim" strip-host \
        "$builddir/burst_${mode}_$engine.json" \
        | sed "s/\"engine\":\"$engine\"/\"engine\":\"-\"/" \
        > "$builddir/burst_${mode}_$engine.stripped.json"
    done
  done
  cmp "$builddir/burst_trace_event.txt" "$builddir/burst_trace_reference.txt"
  for mode in check plain; do
    cmp "$builddir/burst_${mode}_event.stripped.json" \
      "$builddir/burst_${mode}_reference.stripped.json"
  done
  # The same check on the other loops that run as windows: selection's
  # termination, uneven's collection, the central baseline's gather and
  # scatter, rank-sort's passes, virtual Columnsort's transformations and
  # redistribution, recursive Columnsort's levels, and a serving
  # session's batches. The second selection finds its rank inside a
  # filtering phase, so its zero-length "terminate" phase and span are
  # compared too. The third runs Partial-Sums leads past 4,096 cycles, so
  # the event engine files their wakes in the wheel's levels above level 0.
  window_runs=(
    "select:select --p 1024 --k 8 --n 4096 --check"
    "select-long:select --p 4096 --k 1 --n 8192 --seed 2"
    "select-filtered:select --p 257 --k 2 --n 774 --shape zipf --seed 3 --rank 194 --obs"
    "uneven:sort --p 64 --k 8 --n 4096 --algorithm uneven --shape zipf --check"
    "central:sort --p 64 --k 8 --n 4096 --algorithm central --check"
    "ranksort:sort --p 64 --k 8 --n 4096 --algorithm ranksort --check"
    "mergesort:sort --p 64 --k 8 --n 4096 --algorithm mergesort --check"
    "virtual:sort --p 64 --k 8 --n 4096 --algorithm virtual --check"
    "recursive:sort --p 64 --k 8 --n 4096 --algorithm recursive --check"
    "serve:serve --p 64 --k 4 --n 1024 --queries 32 --batch 8 --seed 7"
  )
  for run in "${window_runs[@]}"; do
    name=${run%%:*}
    read -r -a args <<< "${run#*:}"
    for engine in event reference; do
      "$builddir/tools/mcbsim" "${args[@]}" --json --engine "$engine" \
        > "$builddir/window_${name}_$engine.json"
      "$builddir/tools/mcbsim" strip-host \
        "$builddir/window_${name}_$engine.json" \
        | sed "s/\"engine\":\"$engine\"/\"engine\":\"-\"/" \
        > "$builddir/window_${name}_$engine.stripped.json"
    done
    cmp "$builddir/window_${name}_event.stripped.json" \
      "$builddir/window_${name}_reference.stripped.json"
  done
  # Host telemetry contract, made executable: --profile adds one "host"
  # member and changes nothing else. strip-host strict-parses each document
  # (malformed host JSON fails here) and re-serializes it without its "host"
  # members; profiled and plain runs must then cmp equal. The plain serve
  # document is compared raw above, so it must carry no host data at all.
  # The report renders a Host profile section for a profiled document and
  # none for a plain one.
  echo "=== [$preset] profiled smoke (one host member) ==="
  for cmd in sort select; do
    "$builddir/tools/mcbsim" "$cmd" --p 16 --k 4 --n 1024 --engine event \
      --profile --json > "$builddir/prof_$cmd.json"
    "$builddir/tools/mcbsim" "$cmd" --p 16 --k 4 --n 1024 --engine event \
      --json > "$builddir/plain_$cmd.json"
    "$builddir/tools/mcbsim" strip-host "$builddir/prof_$cmd.json" \
      > "$builddir/prof_$cmd.stripped.json"
    "$builddir/tools/mcbsim" strip-host "$builddir/plain_$cmd.json" \
      > "$builddir/plain_$cmd.stripped.json"
    cmp "$builddir/prof_$cmd.stripped.json" \
      "$builddir/plain_$cmd.stripped.json"
  done
  "$builddir/tools/mcbsim" serve --p 16 --k 4 --n 1024 --queries 48 \
    --batch 8 --seed 7 --engine event --profile --json \
    > "$builddir/prof_serve.json"
  "$builddir/tools/mcbsim" strip-host "$builddir/prof_serve.json" \
    > "$builddir/prof_serve.stripped.json"
  "$builddir/tools/mcbsim" strip-host "$builddir/serve_event.json" \
    > "$builddir/plain_serve.stripped.json"
  cmp "$builddir/prof_serve.stripped.json" "$builddir/plain_serve.stripped.json"
  for doc in prof_select prof_serve plain_select serve_event; do
    "$builddir/tools/mcbsim" report "$builddir/$doc.json" \
      > "$builddir/$doc.report.md"
  done
  grep -q '^## Host profile$' "$builddir/prof_select.report.md"
  grep -q '^## Host profile$' "$builddir/prof_serve.report.md"
  for doc in plain_select serve_event; do
    if grep -q '^## Host profile$' "$builddir/$doc.report.md"; then
      echo "FAIL: report of plain $doc.json has a Host profile section" >&2
      exit 1
    fi
  done
  run_mcblint_leg "$preset" "$builddir"
}

# Runs this build tree's own mcblint binary over the lint wall's scan set
# (exit 1 on findings aborts CI via set -e), then holds the linter to the
# repo's determinism contract: two --json runs must be byte-identical.
run_mcblint_leg() {
  local preset="$1"
  local builddir="$2"
  echo "=== [$preset] mcblint (repo rules + two-run JSON determinism) ==="
  "$builddir/tools/mcblint/mcblint" --root . \
    --baseline tools/mcblint/baseline.txt --json \
    src bench tools/mcbsim.cpp tools/mcblint > "$builddir/mcblint_a.json"
  "$builddir/tools/mcblint/mcblint" --root . \
    --baseline tools/mcblint/baseline.txt --json \
    src bench tools/mcbsim.cpp tools/mcblint > "$builddir/mcblint_b.json"
  cmp "$builddir/mcblint_a.json" "$builddir/mcblint_b.json"
}

# Validates a bench artifact's gates with `mcbsim gates`: a strict JSON
# parse of every gate object (any object carrying an "enforced" bool), not
# a text grep that a formatting change could silently blind. Exit 1 =
# enforced gate failed (or no gates found / unreadable artifact) — fails
# CI; exit 3 = all enforced gates passed but unenforced ones exist. On a
# machine with >= 4 hardware threads every gate in the release artifacts is
# expressible (bench_sweep's thread-scaling gate — the only one that
# depends on the machine — needs just 4 lanes), so exit 3 there means a gate that should
# have been armed was not — a regression in the bench, not a machine
# limitation — and fails CI.
# Narrower machines keep the loud WARNING. Sole exception: the
# big_row_p2_20 coverage stub is budget-gated by wall clock, not thread
# count, so a skip stays a WARNING on any machine.
check_gates() {
  local json="$1"
  if [ ! -f "$json" ]; then
    echo "WARNING: bench artifact $json missing" >&2
    WARNINGS=$((WARNINGS + 1))
    return 0
  fi
  local rc=0
  ./build-release/tools/mcbsim gates "$json" | tee "$json.gates.txt" || rc=$?
  case "$rc" in
    0) ;;
    3)
      if [ "$(nproc)" -ge 4 ]; then
        # One unenforced row is legitimate even on a wide machine: the
        # budget-gated p=2^20 coverage stub (a slow box skips the big row
        # however many threads it has). Anything else unenforced here is a
        # bench regression.
        if grep '^UNENFORCED' "$json.gates.txt" \
            | grep -qv 'big_row_p2_20'; then
          echo "FAIL: $json contains UNENFORCED bench gate(s) on a" \
               ">= 4-thread machine — every gate is expressible here, so an" \
               "unenforced gate is a bench regression (see the rows above)" >&2
          exit 1
        fi
        echo "WARNING: $json skipped the budget-gated p=2^20 big row on" \
             "this machine (set MCB_SIMSPEED_FORCE_BIG=1 to run it)" >&2
        WARNINGS=$((WARNINGS + 1))
        return 0
      fi
      echo "WARNING: $json contains UNENFORCED bench gate(s) — this machine" \
           "did not validate them (see the gate rows above)" >&2
      WARNINGS=$((WARNINGS + 1))
      ;;
    *)
      echo "FAIL: bench gate check failed for $json (exit $rc)" >&2
      exit 1
      ;;
  esac
}

run_preset release build-release

# Static-analysis wall, as soon as a build tree exists. lint.sh exits 0
# clean / 1 findings / 3 tool-missing-warn: findings fail CI, 3 means every
# check that ran is clean but a tool was unavailable here — the same
# loud-warning policy as unenforceable bench gates.
echo "=== lint (mcblint + clang-tidy profile) ==="
lint_rc=0
./tools/lint.sh build-release || lint_rc=$?
case "$lint_rc" in
  0) ;;
  3)
    echo "WARNING: lint wall incomplete on this machine — some tools" \
         "could not run (see lint output above)" >&2
    WARNINGS=$((WARNINGS + 1))
    ;;
  *)
    echo "FAIL: lint reported findings (exit $lint_rc)" >&2
    exit 1
    ;;
esac

run_preset asan-ubsan build-asan

# ThreadSanitizer leg: the sweep's trial pool (src/harness) is the one
# place real threads share state, so the harness suite and a checked
# parallel sweep through the CLI run under TSan. Building the whole matrix
# under TSan would double CI time for code TSan cannot exercise.
echo "=== [tsan] configure ==="
cmake --preset tsan
echo "=== [tsan] build (harness suite + CLI) ==="
cmake --build --preset tsan -j "$JOBS" --target harness_test mcbsim
echo "=== [tsan] harness suite ==="
ctest --preset tsan
echo "=== [tsan] checked parallel sweep smoke ==="
./build-tsan/tools/mcbsim sweep --p 4,8 --k 2 --n 64 \
  --algorithms auto,select --seeds 2 --threads 4 --check

# Profiling entry point: on hosts with perf the full record/report path is
# a developer tool, not a CI stage (its numbers are machine-local), but the
# script itself must not bitrot — listing mode exercises its argument
# handling and the preset names it would build with, no perf needed.
echo "=== profile.sh smoke (listing mode) ==="
./tools/profile.sh --list

# Bench gates on the optimised build. The binaries exit non-zero when an
# enforced gate fails, which aborts CI via set -e; unenforced gates only
# warn (check_gates below).
echo "=== bench gates (release) ==="
./build-release/bench/bench_simspeed build-release/BENCH_simspeed.json
./build-release/bench/bench_sweep build-release/BENCH_sweep.json
./build-release/bench/bench_serve build-release/BENCH_serve.json
check_gates build-release/BENCH_simspeed.json
check_gates build-release/BENCH_sweep.json
check_gates build-release/BENCH_serve.json

if [ "$WARNINGS" -gt 0 ]; then
  echo "CI OK with $WARNINGS WARNING(s): release + asan-ubsan" \
       "suites, lint, tsan leg and sweep smokes passed; some checks were" \
       "not enforceable on this machine (see warnings above)"
else
  echo "CI OK: release + asan-ubsan suites, lint, tsan leg," \
       "sweep smokes and all bench gates passed"
fi
