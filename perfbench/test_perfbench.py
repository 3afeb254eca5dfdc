#!/usr/bin/env python3
"""The benchmark's own tests, on tiny sizes.

    python3 perfbench/test_perfbench.py

Checks that every workload emits every metric BENCHMARK.json declares, with
its unit; that a corrupted output is counted as a failure; that the exact
counts repeat for one seed; that solve time left outside the layer spans
fails the closure check; that a hang ends in a loud watchdog failure; and
that the benchmark refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ["runtime.tasks_per_solve", "runtime.messages_per_solve",
                "runtime.bytes_per_solve", "stencil.computed_points_per_solve",
                "sim.tasks", "sim.messages"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


WORKLOADS = [w["name"] for w in spec()["workloads"]]


def bench(workload, trace=0, seed=1, extra=(), cwd=ROOT, env=None):
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", str(trace),
                               "--tiny"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)


def result(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class Perfbench(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        s = spec()
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    r = result(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in s[key]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    env = [json.loads(l) for l in proc.stdout.split("\n")
                           if l.startswith('{"env"')]
                    self.assertEqual(len(env), 1)
                    for field in ("nproc", "llc_bytes", "avx2_selected",
                                  "build_type", "source", "seed",
                                  "stream.copy_gb_s"):
                        self.assertIn(field, env[0]["env"])

    def test_corrupted_output_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, extra=["--inject", "corrupt"])
                self.assertNotEqual(proc.returncode, 0)
                r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("differs from", proc.stderr)

    def test_exact_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [result(bench(workload, trace=1, seed=5))["metrics"]
                        for _ in range(2)]
                for name in EXACT_COUNTS:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)
                    self.assertGreater(runs[0][name]["value"], 0, name)

    def test_unattributed_solve_time_fails_the_closure_check(self):
        proc = bench("base_halo", trace=1, extra=["--inject", "glue"])
        self.assertNotEqual(proc.returncode, 0)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("of the solve wall", proc.stderr)

    def test_hang_is_a_loud_watchdog_failure(self):
        proc = bench("base_halo", extra=["--inject", "hang",
                                         "--watchdog-s", "1"])
        self.assertEqual(proc.returncode, 3)
        self.assertIn("WATCHDOG: workload=base_halo operation=0 phase=run",
                      proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = bench("base_halo", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
