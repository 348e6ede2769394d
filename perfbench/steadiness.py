#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how steady each metric is.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Run from the repository root. For every workload and every end-to-end metric
in BENCHMARK.json it prints each run's value (so a bimodal workload shows),
their median, and the quartile spread (q3 - q1) / median computed with
statistics.quantiles(values, n=4), next to the metric's bound. A spread is
flagged when it reaches a third of the bound; setup_s is flagged only
against its bound, since only its median is held to it. Each run also
shows the host's CPU steal share over the run (from /proc/stat, where
available): on a shared VM the 4 lockstep ranks slow down with it.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_times():
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None


def run_once(workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = cpu_times()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    after = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output")
    steal = None
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        steal = 100.0 * delta[7] / max(1, sum(delta))
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            values, steal = run_once(workload, seed, args.seconds)
            runs.append(values)
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k}={v:.4g}" for k, v in values.items()) +
                  ("" if steal is None else f", steal={steal:.1f}%"),
                  flush=True)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            limit = bound if name == "setup_s" else bound / 3
            flag = "ok" if spread < limit else "WIDE"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:<24} {name:<13} median {med:<10.5g} "
                  f"spread {spread:6.3f} bound {bound:<5} {flag}  runs "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
    print(f"worst spread / bound (excluding setup_s): {worst:.3f}")


if __name__ == "__main__":
    main()
