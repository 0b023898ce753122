#!/usr/bin/env bash
# Profiles the event engine's hot path with Linux perf.
#
# Builds the `perf` CMake preset (RelWithDebInfo, -O3 -march=native, LTO
# when the toolchain supports it — frame pointers kept so perf's call
# graphs resolve without DWARF unwinding every sample), perf-records one
# simspeed selection row through mcbsim, and prints the top hot symbols.
# The default row is the largest always-run bench_simspeed selection row
# (p=65536 k=4 n=262144, the key of its p=2^20 budget guard), so a profile
# and the bench numbers describe the same run.
#
# The recorded run also carries its host telemetry (mcbsim select
# --profile), so next to perf's symbol table — which says *where* host time
# went — the script prints the run's wall time and frame counters.
#
# Usage:
#   tools/profile.sh                 # record the default row, print top 10
#   tools/profile.sh --p 4096 --n 16384   # any mcbsim select flag rides along
#   tools/profile.sh --list          # show what would run; needs no perf
#
# --list exists for CI: tools/ci.sh smokes this script in listing mode on
# machines without perf, so a bitrotted script fails CI even where the
# profiler itself cannot run.
set -euo pipefail

cd "$(dirname "$0")/.."

TOP_N=10
OUT_DIR=build-perf
ROW=(--p 65536 --k 4 --n 262144 --engine event --profile)

list_mode=0
extra=()
for arg in "$@"; do
  case "$arg" in
    --list) list_mode=1 ;;
    *) extra+=("$arg") ;;
  esac
done
# Extra flags override the default row wholesale: mixing "--p 4096" into
# the default geometry would profile a workload nobody asked for.
if [ "${#extra[@]}" -gt 0 ]; then
  ROW=("${extra[@]}" --engine event --profile)
fi

CMD=("$OUT_DIR/tools/mcbsim" select "${ROW[@]}")

if [ "$list_mode" -eq 1 ]; then
  echo "profile.sh would run:"
  echo "  cmake --preset perf && cmake --build --preset perf -j --target mcbsim"
  echo "  perf record -g -o $OUT_DIR/perf.data -- ${CMD[*]}"
  echo "  perf report -i $OUT_DIR/perf.data --stdio | head  (top $TOP_N symbols)"
  exit 0
fi

if ! command -v perf > /dev/null 2>&1; then
  echo "error: perf not found on PATH (try --list for a dry description)" >&2
  exit 2
fi

echo "=== [perf preset] configure + build mcbsim ==="
cmake --preset perf
cmake --build --preset perf -j "$(nproc)" --target mcbsim

echo "=== perf record: ${CMD[*]} ==="
perf record -g -o "$OUT_DIR/perf.data" -- "${CMD[@]}" > "$OUT_DIR/profile_run.txt"

echo "=== host telemetry (same run) ==="
# --profile makes mcbsim print the run's host member after the run
# summary; everything from its "host profile:" line onward is ours.
sed -n '/^host profile:/,$p' "$OUT_DIR/profile_run.txt"

echo "=== top $TOP_N hot symbols ==="
# --percent-limit 0 keeps tiny symbols out of the cut; the sed strips
# perf's comment preamble so exactly TOP_N symbol rows print.
perf report -i "$OUT_DIR/perf.data" --stdio --sort symbol \
  | sed '/^#/d;/^\s*$/d' | head -n "$TOP_N"
echo "full profile: perf report -i $OUT_DIR/perf.data"
