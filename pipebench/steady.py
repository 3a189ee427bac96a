#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, the way it is accepted.

    python3 pipebench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs pipebench/run.py once per (workload, seed), sequentially, with the
run_seconds of BENCHMARK.json, and prints for every metric its median and
its spread: the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. End-to-end
spreads, setup_s's included, are compared with a third of each metric's
bound. Exits 1 when a run fails or a spread exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "pipebench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: FAILED ({proc.returncode})")
                print(proc.stderr.strip().split("\n")[-1])
                ok = False
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            notes = [line[2:] for line in proc.stderr.split("\n")
                     if line.startswith(("# host:", "# set-ups"))]
            summary = " ".join(f"{k}={m['value']:.4g}"
                               for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {result['failed']}/"
                  f"{result['attempted']} operations failed; {summary}; "
                  f"{'; '.join(notes)}; {wall:.1f} s", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload} ({len(seed_list(args.seeds))} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            verdict = ""
            if name in bounds:
                limit = bounds[name] / 3
                steady = spread <= limit
                verdict = f"  (bound/3 {limit:.4f}: " + \
                    ("ok" if steady else "TOO NOISY") + ")"
                if not steady:
                    ok = False
            print(f"  {name:36s} median {med:14.6g} {units[name]:6s} "
                  f"spread {spread:8.4f}{verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
