"""Smoke test of the benchmark harness at a tiny size.

    python3 perfbench/test_harness.py        (or: python3 -m pytest perfbench)

Checks that every metric BENCHMARK.json names is printed with its unit,
untraced and traced, for every workload; that a deliberately corrupted
result raises the failure count; and that a directory holding only the
benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_output(self, proc, section: str):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, unit in expected.items():
            self.assertTrue(any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                                for line in lines), f"{name} not printed with {unit}")
        self.assertTrue(any(line.startswith("fail_ratio 0.0 (0 failed of ")
                            for line in lines))
        return result

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in ("corpus", "deep", "certify"):
            with self.subTest(workload=workload):
                e2e = self.check_output(
                    run_bench("--workload", workload, "--size", "tiny", "--seconds", "0",
                              "--trace", "0"), "end_to_end")
                for name, metric in e2e["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.check_output(
                    run_bench("--workload", workload, "--size", "tiny", "--seconds", "0",
                              "--trace", "1"), "per_layer")

    def test_corrupted_result_raises_fail_ratio(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        import workloads as wl
        from holderlevels import levelset
        from tracing import NULL_TRACER

        specs = wl.make_specs("corpus", 0, "tiny")
        clean = wl.run_pass("corpus", specs, NULL_TRACER, os.path.join(ROOT, ".perfbench_out", "t"))
        self.assertEqual(clean.failed, 0)
        original = levelset.LevelSetTree.fill_measure

        def corrupt(tree, depth=None):
            original(tree, depth)
            node = tree.nodes_at(tree.depth)[0]
            node.mu += Fraction(1, 7)
            return tree

        levelset.LevelSetTree.fill_measure = corrupt
        try:
            bad = wl.run_pass("corpus", specs, NULL_TRACER, os.path.join(ROOT, ".perfbench_out", "t"))
        finally:
            levelset.LevelSetTree.fill_measure = original
        self.assertGreater(bad.failed, 0)
        self.assertGreater(bad.failed / bad.attempted, clean.failed / clean.attempted)

    def test_fails_without_the_library(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
