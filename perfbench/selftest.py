#!/usr/bin/env python3
"""The benchmark's own tests: determinism and traced-run invariance.

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload (all three by default) it runs the benchmark three
times with one seed: untraced twice and traced once. The virtual-time
part of the report (the per-sub-seed rows and the virtual-time medians)
must be byte-identical across the three, and every run must report
correct = true. Inside each run the benchmark already checks that a
repeated sub-seed reproduces its twin and that the traced pass agrees
with the untraced pass on the same sub-seed.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["serve-light", "serve-ramp", "kv-failover"]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.rstrip("\n").split("\n")
    result = json.loads(out[-1])
    # Everything from the first sub-seed row up to the wall-clock block
    # is a pure function of the seed.
    start = next(i for i, l in enumerate(out) if l.startswith("sub-seed "))
    end = next(i for i, l in enumerate(out) if l.startswith("wall clock"))
    return result, out[start:end]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    failures = 0
    for w in args.workloads:
        runs = [run(w, args.seed, 0), run(w, args.seed, 0), run(w, args.seed, 1)]
        problems = []
        if any(not r["correct"] for r, _ in runs):
            problems.append("a run reported correct = false")
        if runs[0][1] != runs[1][1]:
            problems.append("same seed twice gave different virtual-time metrics")
        if runs[0][1] != runs[2][1]:
            problems.append("traced run's virtual-time metrics differ from the untraced run's")
        print("%-12s %s" % (w, "ok" if not problems else "FAIL: " + "; ".join(problems)))
        failures += len(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
