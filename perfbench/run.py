#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/
at the root of the checkout, then runs it:

    python3 perfbench/run.py --workload paper_2km --seed 1 --seconds 15 --trace 0

--workload all runs every workload, each in its own process, first timed and
then traced, and fails if any of them fails. The last line of stdout is the benchmark's JSON result (for
--workload all: one JSON object per workload and pass, in order).

Run from the root of the checkout; everything is read and written inside it.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper_2km", "dense_2km", "rsu_hotspot"]
JOBS = "4"


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build",
                             "perfbench_trace_%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            if run_one(workload, args.seed, args.seconds, trace) != 0:
                print("perfbench: %s --trace %d FAILED" % (workload, trace),
                      file=sys.stderr)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
