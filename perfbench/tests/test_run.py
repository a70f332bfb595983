#!/usr/bin/env python3
"""End-to-end checks of the benchmark harness.

Run from the repository root:  python3 perfbench/tests/test_run.py

Builds the driver and its unit tests through perfbench/run.py's build step,
then checks that every workload's output names each metric declared in
BENCHMARK.json with its unit, that a deliberately wrong reference shows up
as failed operations, and that the harness refuses to run without the
repository's sources. Takes a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    return p.returncode, p.stdout.splitlines()


class Harness(unittest.TestCase):
    def test_unit_tests_pass(self):
        binary = run.build("perfbench_tests")
        self.assertEqual(subprocess.call([binary], stdout=subprocess.DEVNULL), 0)

    def check_metrics(self, result, declared):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_traced_runs_name_every_per_layer_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines = bench(w["name"], 1)
                self.assertEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["per_layer"])

    def test_wrong_reference_fails_every_repetition(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines = bench(w["name"], 0, "--wrong-reference")
                self.assertEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_refuses_without_sources(self):
        lone = os.path.join(ROOT, ".bench_out", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(BENCH, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(SPEC["command"] + ["--workload", "spawn-threads", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                               cwd=lone, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
