#!/usr/bin/env python3
"""The benchmark's own tests: every workload at tiny size, traced and not,
a deliberately wrong answer per workload that must trip its check, the
refusal outside a checkout, and the context check of --compare.

Run from the root of a covstream checkout:

    python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    """Runs the benchmark; returns (exit code, parsed last line or None)."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def tiny(workload, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "2",
                 "--scale", "tiny", *extra)


class Workloads(unittest.TestCase):
    def assert_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in specs}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, value in result["metrics"].items():
            self.assertEqual(value["unit"], expected[name], name)
            self.assertIsInstance(value["value"], float, name)

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                code, result = tiny(workload, "--trace", "0")
                self.assertEqual(code, 0)
                self.assert_metrics(result, SPEC["end_to_end"])
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                code, result = tiny(workload, "--trace", "1")
                self.assertEqual(code, 0)
                self.assert_metrics(result, SPEC["per_layer"])

    def test_wrong_answer_trips_the_check(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                code, result = tiny(workload, "--corrupt")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertEqual(result["metrics"], {})


class Harness(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, ".bench_tmp"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_refuses_to_run_outside_a_checkout(self):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), self.tmp)
        shutil.copytree(os.path.dirname(RUN), os.path.join(self.tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "file_kcover",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_compare_refuses_mismatched_contexts(self):
        context = {"compiler": "gcc", "cxx_flags": "-O3", "build_type": "Release",
                   "isa": "avx2", "host": "h", "nproc": 4, "git_sha": "a",
                   "source_digest": "x"}
        record = {"context": context, "workload": "wire_ingest", "trace": 0,
                  "metrics": {"p50_ms": {"value": 1.0, "unit": "ms"}}}
        paths = []
        for name, change in (("old", {}), ("new", {"git_sha": "b"}),
                             ("scalar", {"isa": "scalar"})):
            path = os.path.join(self.tmp, name + ".json")
            with open(path, "w") as handle:
                json.dump({**record, "context": {**context, **change}}, handle)
            paths.append(path)
        code, _ = bench("--compare", paths[0], paths[1])
        self.assertEqual(code, 0)  # only the code identity differs
        code, _ = bench("--compare", paths[0], paths[2])
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
