"""Tests of the benchmark itself: a wrong answer and an overrun must count.

    python3 perfbench/selftest.py

Run from the root of a checkout. These are not part of the package's test
suite; they check that the harness cannot report a clean run it did not have.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import workloads  # noqa: E402


def _context():
    pkg, mods = harness.fresh_import()
    import oracles

    ns = type("Modules", (), dict(mods, pkg=pkg))
    caches = harness.Caches(mods)
    ref = workloads.Reference(ns, oracles)
    return workloads.Context(ns, ref, ROOT, ROOT / ".perfbench_out" / "selftest", caches.clear), caches


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class HarnessCounts(unittest.TestCase):
    def setUp(self):
        self.ctx, self.caches = _context()
        self.spec = workloads.anchor("ab", "aa", "bb")
        F = workloads._segment(self.ctx.mods, self.ctx.ref, self.spec)
        self.build = lambda: self.ctx.mods.pkg.build_envelope(F)

    def run_jobs(self, jobs):
        tally = harness.Tally()
        harness.run_pass(jobs, self.caches, harness.Speed(), tally)
        return tally

    def envelope_job(self, size, budget_s=30.0):
        return workloads.Job(
            "envelope {aa,bb}",
            self.build,
            lambda env: workloads._acceptor_check(self.ctx.ref, self.spec, env, size),
            budget_s,
        )

    def test_right_answer_is_not_counted(self):
        tally = self.run_jobs([self.envelope_job(6)])
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_planted_wrong_expected_value_is_counted(self):
        tally = self.run_jobs([self.envelope_job(6), self.envelope_job(7)])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("expected 7", tally.failures[0])

    def test_wrong_minmax_pin_is_counted(self):
        spec = workloads.anchor("six", "ab", "ac", "ba", "bc", "ca", "cb")
        F = workloads._segment(self.ctx.mods, self.ctx.ref, spec)
        job = workloads.Job(
            "minmax", lambda: self.ctx.mods.pkg.search_minmax(F),
            lambda out: workloads._minmax_check(self.ctx.ref, spec, (5, 48, 3), out), 60.0,
        )
        self.assertEqual(self.run_jobs([job]).failed, 1)

    def test_over_budget_job_is_counted(self):
        job = workloads.Job("spin", lambda: spin(5.0), lambda _: None, 0.05)
        start = time.perf_counter()
        tally = self.run_jobs([job, self.envelope_job(6)])
        self.assertLess(time.perf_counter() - start, 4.0)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("budget", tally.failures[0])

    def test_speed_is_sampled_during_a_long_job(self):
        speed = harness.Speed()
        job = workloads.Job("spin", lambda: spin(2.2), lambda _: None, 10.0)
        elapsed, _, error = speed.run_job(job)
        self.assertIsNone(error)
        self.assertGreaterEqual(len(speed.samples), 2)
        # the job's time leaves out the sampling done inside it
        self.assertLess(elapsed, 2.2)
        self.assertGreater(speed.take(), 0)

    def test_exception_is_counted(self):
        job = workloads.Job("raises", lambda: 1 / 0, lambda _: None, 1.0)
        self.assertEqual(self.run_jobs([job]).failed, 1)

    def test_caches_are_found_and_cleared(self):
        names = set(self.caches.found)
        self.assertGreaterEqual(len(names), 7)
        self.build()
        counts = self.caches.take()
        self.assertGreater(counts["envelope.build_envelope"][1], 0)
        self.assertEqual(self.ctx.mods.pkg.build_envelope.cache_info().currsize, 0)


class Entry(unittest.TestCase):
    def test_refuses_a_directory_without_the_package(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
