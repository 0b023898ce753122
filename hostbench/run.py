#!/usr/bin/env python3
"""Build the host-time benchmark from source, then run one workload.

Run from the repository root:

    python3 hostbench/run.py --workload sort_dense --seed 1 --seconds 28 --trace 0

The first run configures and builds the mcb library and the hostbench
executable (Release) into .bench_build/hostbench; later runs only check that the
build is up to date. The executable's standard output is passed through, so the
last line is the JSON result. With --trace 1 the recorded spans are written
to .bench_build/hostbench/spans/<workload>-seed<seed>.json.

Exit status: the executable's (0 on a correct run, 1 when a check failed), or 2
when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("select_wide", "sort_dense", "serve_mixed", "sweep_grid")


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    return 2


def build():
    """Configures once, then builds the executable; tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            return fail("the mcb sources are missing (no %s in %s)" % (f, ROOT))
    if shutil.which("cmake") is None:
        return fail("cmake is not on PATH")
    if not build():
        return fail("build failed")

    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        return fail("the run did not finish in time")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
