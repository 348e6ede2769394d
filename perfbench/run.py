#!/usr/bin/env python3
"""Builds the benchmark binary if needed, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench and a
traced run writes its spans (Chrome trace-event JSON) to
.bench_build/traces/. The binary's stdout is passed through unchanged, so its
last line is the result object. Any further arguments (--size small) go to
the binary as they are.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
SOURCE_DIR = "perfbench"


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root; src/ is missing")
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    out = sys.stderr.fileno()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=out)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=out)
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-out", os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
