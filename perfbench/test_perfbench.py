#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/test_perfbench.py

Run from the repository root. For every workload it checks that each metric
BENCHMARK.json names is printed with its unit, that the seeded inputs are a
pure function of the seed, and that the traced and untraced runs reduce to
the same result checksum. It also checks that the benchmark refuses to run,
without printing a result, from a directory that holds only BENCHMARK.json
and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import unittest

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)


def run(workload, seed, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(l.split(" ", 1)[1]) for l in lines
                  if l.startswith("record "))
    return record, json.loads(lines[-1])


class WorkloadTest(unittest.TestCase):
    def check_workload(self, workload):
        runs = {}
        for seed, trace in [(11, 0), (11, 0), (12, 0), (11, 1)]:
            proc = run(workload, seed, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            runs.setdefault((seed, trace), []).append(parse(proc))

        for trace, names in [(0, "end_to_end"), (1, "per_layer")]:
            _, result = runs[(11, trace)][0]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in BENCH[names]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, expected)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)

        (rec_a, _), (rec_b, _) = runs[(11, 0)]
        rec_other, _ = runs[(12, 0)][0]
        rec_traced, _ = runs[(11, 1)][0]
        self.assertEqual(rec_a["input_checksum"], rec_b["input_checksum"])
        self.assertNotEqual(rec_a["input_checksum"], rec_other["input_checksum"])
        self.assertEqual(rec_a["result_checksum"], rec_b["result_checksum"])
        self.assertEqual(rec_a["result_checksum"], rec_traced["result_checksum"])

    def test_adasum_shm(self):
        self.check_workload("adasum-shm-64m")

    def test_adasum_int8_mailbox(self):
        self.check_workload("adasum-int8-mailbox-64m")

    def test_train_lenet(self):
        self.check_workload("train-lenet")

    def test_benchmark_json_names_tested_workloads(self):
        tested = {"adasum-shm-64m", "adasum-int8-mailbox-64m", "train-lenet"}
        self.assertLessEqual({w["name"] for w in BENCH["workloads"]}, tested)
        self.assertNotEqual(run("no-such-workload", 1, 0).returncode, 0)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        try:
            proc = run(BENCH["workloads"][0]["name"], 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
