#!/usr/bin/env bash
# Static-analysis wall: mcblint (the repo-aware analyzer, tools/mcblint/,
# rules MCB-L1..L3, L6 — see docs/LINT.md) plus the clang-tidy profile in
# .clang-tidy, over the library, tools and bench sources. Run by
# tools/ci.sh on every preset leg.
#
#   usage: tools/lint.sh [compile-commands-dir]
#
# Exit discipline (mirrors `mcbsim gates`):
#
#   0  clean — the enforced checks ran and passed
#   1  findings — mcblint or clang-tidy reported at least one problem
#   3  tool-missing-warn — no findings, but the ENFORCED analyzer could not
#      run: no mcblint binary exists in any configured build tree. ci.sh
#      surfaces 3 as a loud WARNING: a machine that cannot run the check
#      must say so visibly, never silently pass.
#
# mcblint is the enforced half (its rules need no external toolchain, only
# the repo's own build): the binary is searched across the configured build
# trees. clang-tidy is best-effort with the long-standing loud-skip policy
# — when it or its compile_commands.json is unavailable that half is
# SKIPPED with a loud warning and does not affect the exit code. The first
# existing database of [argument, build, build-release, build-tsan,
# build-perf] is used.
set -uo pipefail

cd "$(dirname "$0")/.."
FINDINGS=0
MISSING=0
SKIPPED=0

# Sources the wall covers. tests/ is excluded: tests/lint_fixtures/ exists
# to fire the rules (tests/mcblint_test.cpp asserts the exact findings).
LINT_PATHS=(src bench tools/mcbsim.cpp tools/mcblint)

# --- mcblint: repo rules MCB-L1..L3, L6 --------------------------------

run_mcblint() {
  local bin=""
  for d in "${1:-}" build build-release build-tsan build-perf build-asan; do
    if [ -n "$d" ] && [ -x "$d/tools/mcblint/mcblint" ]; then
      bin="$d/tools/mcblint/mcblint"
      break
    fi
  done
  if [ -z "$bin" ]; then
    echo "WARNING: no mcblint binary in any configured build tree — the" \
         "repo rules MCB-L1..L3, L6 DID NOT RUN (build one first, e.g." \
         "cmake --build build --target mcblint)" >&2
    MISSING=$((MISSING + 1))
    return 0
  fi
  echo "=== mcblint (repo rules MCB-L1..L3, L6; binary: $bin) ==="
  local rc=0
  "$bin" --root . --baseline tools/mcblint/baseline.txt \
    "${LINT_PATHS[@]}" || rc=$?
  case "$rc" in
    0) ;;
    1)
      echo "lint: mcblint reported findings — fix, lint-allow with a" \
           "justification, or (exceptionally) baseline (docs/LINT.md)" >&2
      FINDINGS=$((FINDINGS + 1))
      ;;
    *)
      echo "lint: mcblint failed to run (exit $rc)" >&2
      FINDINGS=$((FINDINGS + 1))
      ;;
  esac
}

# --- clang-tidy --------------------------------------------------------------

run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "WARNING: clang-tidy is not installed — the clang-tidy half of the" \
         "lint wall DID NOT RUN on this machine (mcblint still enforced)" >&2
    SKIPPED=$((SKIPPED + 1))
    return 0
  fi
  local ccdir=""
  for d in "${1:-}" build build-release build-tsan build-perf; do
    if [ -n "$d" ] && [ -f "$d/compile_commands.json" ]; then
      ccdir="$d"
      break
    fi
  done
  if [ -z "$ccdir" ]; then
    echo "WARNING: no compile_commands.json found (configure a build tree" \
         "first, e.g. cmake --preset default) — clang-tidy DID NOT RUN" >&2
    SKIPPED=$((SKIPPED + 1))
    return 0
  fi
  echo "=== clang-tidy (database: $ccdir; $(nproc)-way parallel) ==="
  local start end rc=0
  start=$(date +%s)
  # One clang-tidy process per TU, file-parallel across the machine: TUs are
  # independent, so this scales where the old single-process run serialized.
  # xargs exits non-zero iff any invocation reported findings or failed.
  find src -name '*.cpp' | sort \
    | xargs -P "$(nproc)" -n 1 clang-tidy -p "$ccdir" --quiet || rc=$?
  end=$(date +%s)
  echo "clang-tidy wall time: $((end - start))s"
  if [ "$rc" -ne 0 ]; then
    echo "lint: clang-tidy reported findings" >&2
    FINDINGS=$((FINDINGS + 1))
  fi
}

run_mcblint "${1:-}"
run_clang_tidy "${1:-}"

if [ "$FINDINGS" -gt 0 ]; then
  echo "LINT FAILED: $FINDINGS check(s) reported findings" >&2
  exit 1
fi
if [ "$MISSING" -gt 0 ]; then
  echo "LINT INCOMPLETE: the enforced analyzer (mcblint) could not run on" \
       "this machine (see the warning above)" >&2
  exit 3
fi
if [ "$SKIPPED" -gt 0 ]; then
  echo "LINT OK with $SKIPPED WARNING(s): mcblint clean; the best-effort" \
       "clang-tidy half was unavailable on this machine (see above)"
else
  echo "LINT OK: mcblint and clang-tidy clean"
fi
