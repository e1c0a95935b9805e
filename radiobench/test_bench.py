#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 radiobench/test_bench.py

Builds the radiobench program and its self-test, runs the self-test (two
runs give identical counts and digests; the traced replica matches
run_kbroadcast on a tiny graph; a digest mismatch lands in fail_frac), then
runs every workload of BENCHMARK.json at tiny size in both modes and checks
that the metric and workload names the benchmark prints are exactly the
ones BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys
import unittest

import run

RUN_PY = os.path.join(run.BENCH_DIR, "run.py")


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["radiobench", "radiobench_selftest"])
        cls.spec = run.load_spec()

    def test_selftest(self):
        proc = subprocess.run([os.path.join(run.BUILD_DIR, "radiobench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_names_match_benchmark_json(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = bench(w["name"], trace)
                    self.assertEqual(code, 0)
                    host, result = json.loads(lines[-2]), json.loads(lines[-1])
                    self.assertEqual(host["host"]["workload"], w["name"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_program_knows_exactly_the_spec_workloads(self):
        program = os.path.join(run.BUILD_DIR, "radiobench")
        for name in [w["name"] for w in self.spec["workloads"]] + ["no-such-workload"]:
            proc = subprocess.run(
                [program, "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--tiny"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            self.assertEqual(proc.returncode, 2 if name == "no-such-workload" else 0)

    def test_spec_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
