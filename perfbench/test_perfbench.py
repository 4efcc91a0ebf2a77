#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of the repository. Builds perfbench (like run.py), runs
the harness arithmetic tests, checks that the binary's metric catalogue
matches BENCHMARK.json name for name and unit for unit, and makes one
minimal-length run of every workload (plus one traced run), checking the
result line.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

OUT = run.build_dir()
BINARY = os.path.join(OUT, "perfbench")
SPEC = json.load(open("BENCHMARK.json"))


def setUpModule():
    run.build(OUT)


def bench(*args):
    work = os.path.join(OUT, "perfbench-work")
    return subprocess.run([BINARY, "--work-dir", work] + list(args),
                          capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class Harness(unittest.TestCase):
    def test_arithmetic(self):
        # Percentile rule, front-door arithmetic, span coverage, result line.
        done = subprocess.run([os.path.join(OUT, "perfbench_harness_test")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_catalogue_matches_benchmark_json(self):
        listed = {"end_to_end": {}, "per_layer": {}}
        for line in bench("--list-metrics").stdout.splitlines():
            kind, name, unit = line.split()
            listed[kind][name] = unit
        for kind in listed:
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            self.assertEqual(listed[kind], declared, kind)

    def test_unknown_workload_prints_no_result(self):
        done = bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Workloads(unittest.TestCase):
    def check(self, workload, trace):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return result

    def test_every_workload_minimal_run(self):
        # serve-alexnet is runnable though BENCHMARK.json leaves it out.
        for name in [w["name"] for w in SPEC["workloads"]] + ["serve-alexnet"]:
            with self.subTest(workload=name):
                self.check(name, 0)

    def test_traced_run(self):
        metrics = self.check("gateway-mixed", 1)["metrics"]
        self.assertGreater(metrics["net.front_door_ms.p50"]["value"], 0)
        self.assertGreater(metrics["bench.span_coverage"]["value"], 0)
        self.assertEqual(metrics["serve.plan_cache_hit_rate"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
