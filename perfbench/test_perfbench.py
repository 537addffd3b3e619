#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that
  * the metric names and units it prints match BENCHMARK.json exactly, and
    every name uses only letters, digits, '_', '.' and '-';
  * the simulated end-to-end metrics repeat exactly across two runs of one
    seed;
  * stepping and profiling leave every world's digest unchanged (the
    benchmark's own checks pass on every workload in both passes).
Runs take a few minutes: each workload runs at its smallest size.
"""
import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SIMULATED = ["query_success", "query_delay_p50_ms", "query_delay_p95_ms",
             "update_tx_per_veh_min", "query_tx_per_query"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# --seconds small enough that every workload runs a single seed.
TINY = "0.1"


def bench(workload, trace, seed=None):
    """Runs the built benchmark; returns (exit code, parsed last line)."""
    cmd = [run.BINARY, "--workload", workload, "--seconds", TINY,
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace-out", os.path.join(ROOT, ".bench_build",
                                            "test_trace_%s.json" % workload)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = done.stdout.strip().splitlines()[-1]
    return done.returncode, json.loads(last)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.manifest = json.load(f)
        cls.results = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[(workload, trace)] = bench(workload, trace)

    def test_workloads_match_manifest(self):
        self.assertEqual([w["name"] for w in self.manifest["workloads"]],
                         run.WORKLOADS)

    def test_metric_names_and_units_match_manifest(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            want = {m["name"]: m["unit"] for m in self.manifest[key]}
            for name in want:
                self.assertRegex(name, NAME)
            for workload in run.WORKLOADS:
                _, result = self.results[(workload, trace)]
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want, "%s --trace %d" % (workload, trace))

    def test_checks_pass_on_every_workload_and_pass(self):
        # Trace 0 compares each stepped world's digest with an unstepped
        # World::run(); trace 1 compares the profiled, spanned run with the
        # timed one. Both also audit every world and close query accounting.
        for (workload, trace), (code, result) in self.results.items():
            label = "%s --trace %d" % (workload, trace)
            self.assertEqual(code, 0, label)
            self.assertTrue(result["correct"], label)
            self.assertEqual(result["failed"], 0, label)
            self.assertGreaterEqual(result["attempted"], 1, label)

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in run.WORKLOADS:
            _, result = self.results[(workload, 0)]
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0.0, "%s %s" % (workload, name))

    def test_simulated_metrics_repeat_for_one_seed(self):
        for workload in ("paper_2km", "rsu_hotspot"):
            _, first = bench(workload, 0, seed=3)
            _, second = bench(workload, 0, seed=3)
            _, other = bench(workload, 0, seed=4)
            for name in SIMULATED:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 "%s %s" % (workload, name))
            # A different seed is a different input.
            self.assertNotEqual(
                [first["metrics"][n]["value"] for n in SIMULATED],
                [other["metrics"][n]["value"] for n in SIMULATED], workload)

    def test_bad_arguments_fail_without_result(self):
        done = subprocess.run([run.BINARY, "--workload", "nope"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
