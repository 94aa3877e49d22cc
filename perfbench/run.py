#!/usr/bin/env python3
"""Round benchmark entry point.

Builds the library and the harness from source (perfbench/CMakeLists.txt,
build tree under .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload flat-krum --seed 7 --seconds 10 --trace 0

Run from the repository root.  The harness's standard output is passed
through; its last line is the result object.  Build output goes to standard
error.  --tiny selects the small shapes the self-test uses.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_round")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds incrementally; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # configure again next time
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", spans]
    if args.tiny:
        command.append("--tiny")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
