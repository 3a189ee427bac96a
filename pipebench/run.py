#!/usr/bin/env python3
"""Build and run one workload of the SkeletonHunter pipeline benchmark.

Usage (from the root of a source checkout):

    python3 pipebench/run.py --workload <fabric_24k|replay_97k|churn_spray>
                             --seed <n> --seconds <s> --trace <0|1>

The first call in a checkout builds the repository's library sources and
the benchmark with CMake into .bench_build/pipebench (and runs the
benchmark's helper tests once per build). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.

A traced run is two processes: an untraced one first, whose first
repetition's median tick is the base of trace.overhead_frac, then the traced
one (one repetition), whose spans are written to
.bench_build/pipebench/traces/. End-to-end numbers never come
from a traced process. Any failed build, test or output check exits
non-zero without printing a result. See pipebench/RATIONALE.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
WORKLOADS = ("fabric_24k", "replay_97k", "churn_spray")
# Whole-run budget: a run must end within 180 s (900 s for the first in a
# checkout, which builds).
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build/test step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(deadline):
    if not (ROOT / "src" / "core" / "harness.h").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, max(1, deadline - time.monotonic()))
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs],
              max(1, deadline - time.monotonic()))
    binary = BUILD / "pipebench"
    selftest = BUILD / "pipebench_selftest"
    stamp = BUILD / "selftest.passed"
    if not binary.is_file() or not selftest.is_file():
        fail("build produced no pipebench or pipebench_selftest binary")
    if not stamp.is_file() or stamp.stat().st_mtime < selftest.stat().st_mtime:
        run_quiet([str(selftest)], max(1, deadline - time.monotonic()))
        stamp.touch()
    return binary


def run_workload(binary, args, trace, extra, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    cmd += extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    notes = {}
    for line in lines[:-1]:
        print(line, file=sys.stderr)
        if line.startswith("# base_tick_ms "):
            notes["base_tick_ms"] = line.split()[2]
    if proc.returncode != 0:
        fail(f"{args.workload} exited {proc.returncode}: {lines[-1]}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{args.workload} printed no result line")
    if not result.get("correct"):
        fail(f"{args.workload} reported incorrect output")
    return result, notes


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    first_build = not (BUILD / "pipebench").is_file()
    binary = build(start + BUILD_TIMEOUT_S)
    # A run that had to build may use the first-run allowance.
    deadline = time.monotonic() + RUN_TIMEOUT_S if first_build else \
        start + RUN_TIMEOUT_S

    if not args.trace:
        result, _ = run_workload(binary, args, False, [], deadline)
    else:
        _, notes = run_workload(binary, args, False, [], deadline)
        if "base_tick_ms" not in notes:
            fail(f"{args.workload} printed no base_tick_ms line")
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{args.workload}-seed{args.seed}.json"
        result, _ = run_workload(
            binary, args, True,
            ["--trace-out", str(out), "--base-tick-ms", notes["base_tick_ms"]],
            deadline)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
