#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds perfbench/main.exe
with dune (into _build/, with dune's shared cache off so nothing is
written outside the checkout), runs it with glibc's mmap threshold
pinned (see below), and forwards its output. The last stdout line is
the JSON result. If the checkout cannot be built, or the run fails or
overruns, it exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a source checkout (missing %s)" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode)

    # A process that builds one cluster maps its logs afresh and pays the
    # page faults. glibc raises its mmap threshold after the first large
    # block is freed, so later set-ups in a process that builds many
    # clusters would reuse memory that is already mapped. Pinning the
    # threshold at glibc's default (128 KiB) keeps every set-up as cold
    # as the first one.
    env.update(MALLOC_MMAP_THRESHOLD_="131072")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             env=env, timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("run failed with exit code %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
