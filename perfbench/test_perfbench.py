#!/usr/bin/env python3
"""Smoke tests of the benchmark, on its small inputs.

Run from the repository root:

    python3 perfbench/test_perfbench.py

- Every workload prints one result line with exactly the end-to-end
  metrics (untraced) or the per-layer metrics (traced) of BENCHMARK.json,
  correct and with no failed operation.
- Every workload's independent checks reject each planted fault: a wrong
  pair, a dropped pair, a duplicated pair, a self-join order violation, a
  dropped kNN neighbour and a mis-ordered kNN row (--self-test).
- Without the repository around it the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, spec):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_untraced_result_line(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, BENCH["end_to_end"])
                for name, value in metrics.items():
                    self.assertGreater(value["value"], 0, name)

    def test_traced_result_line(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1, BENCH["per_layer"])
                self.assertGreater(metrics["data.generate_s"]["value"], 0)

    def test_checks_reject_planted_faults(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--smoke",
                           "--self-test")
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                self.assertIn("wrong pair", proc.stderr)
                self.assertIn("dropped pair", proc.stderr)
                self.assertNotIn("NOT REJECTED", proc.stderr)
                if workload == "serve_mixed":
                    self.assertIn("mis-ordered kNN row", proc.stderr)
                    self.assertIn("dropped kNN neighbour", proc.stderr)
                if workload == "dna_strings":
                    self.assertIn("self-join convention", proc.stderr)

    def test_fails_outside_the_repository(self):
        scratch = os.path.join(ROOT, "perfbench-out", "isolated")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180,
            env={k: v for k, v in os.environ.items()
                 if k != "CARGO_TARGET_DIR"})
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
