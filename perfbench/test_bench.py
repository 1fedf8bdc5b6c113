#!/usr/bin/env python3
"""Tests of the node benchmark itself, at a size that takes seconds.

Run from the repository root:  python3 perfbench/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SMALL = ["--seconds", "1", "--users", "64"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--trace", str(trace)] + SMALL + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def last_json(stdout):
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


class BenchmarkContractTest(unittest.TestCase):
    def check_metrics(self, trace, section):
        spec = load_spec()
        for workload in spec["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name, trace=trace):
                proc = run_bench(name, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = last_json(proc.stdout)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for metric in spec[section]:
                    self.assertIn(metric["name"], result["metrics"])
                    printed = result["metrics"][metric["name"]]
                    self.assertEqual(printed["unit"], metric["unit"],
                                     metric["name"])
                    self.assertIsInstance(printed["value"], (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, "per_layer")

    def test_wrong_expected_root_fails_the_run(self):
        proc = run_bench("sync-mem", 0, ["--inject-root-mismatch"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("diverged from serial replay", proc.stderr)
        result = last_json(proc.stdout)
        self.assertIs(result["correct"], False)

    def test_failed_queries_are_counted_not_fatal(self):
        proc = run_bench("head-rpc", 0, ["--inject-unknown-root"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc.stdout)
        self.assertIs(result["correct"], True)
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_fails_without_the_repository_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("sync-mem", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
