#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism of the virtual outputs and the
shape of the result line.

    python3 perfbench/test_perfbench.py

Builds the harness the same way run.py does (first run takes about a
minute), then runs it on shortened workloads (--scale).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's build entry point)

SCALE = "0.05"


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = os.path.join(run.build(False), "efac_perfbench")

    def drive(self, workload, seed, trace=0):
        done = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.01", "--trace", str(trace), "--scale", SCALE,
             "--min-iterations", "1"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        lines = done.stdout.strip().split("\n")
        virtual = next(l for l in lines if l.startswith("virtual: "))
        return json.loads(virtual[len("virtual: "):]), json.loads(lines[-1])

    def test_same_seed_repeats_virtual_outputs(self):
        for workload in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=workload):
                first, _ = self.drive(workload, 7)
                again, _ = self.drive(workload, 7)
                self.assertEqual(first, again)

    def test_other_seed_changes_virtual_outputs(self):
        for workload in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=workload):
                first, _ = self.drive(workload, 7)
                other, _ = self.drive(workload, 8)
                self.assertNotEqual(first["dispatch_hash"],
                                    other["dispatch_hash"])
                self.assertNotEqual(first["sim_mops"], other["sim_mops"])

    def test_result_line_reports_every_declared_metric(self):
        declared = spec()
        workload = declared["workloads"][0]["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                _, result = self.drive(workload, 3, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {m["name"]: m["unit"] for m in declared[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, units)

    def test_fails_without_repository_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ must make
        # run.py exit non-zero without printing a result.
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns(
                                "__pycache__", os.path.basename(tmp)))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "read95-256B", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
