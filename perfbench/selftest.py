#!/usr/bin/env python3
"""Self-test of the round benchmark on tiny shapes of every workload.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload, hier-10k included, it
checks that:
  * untraced and traced runs are correct (parity checks pass, no failed
    rounds) and report exactly the metrics BENCHMARK.json names, with the
    units it names;
  * two runs of one seed report identical exact counts and an identical
    dist_to_honest_min;
  * a second seed runs clean.
It also checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "0.3"
SEEDS = (3, 11)
# Counts that are a pure function of the spec: they must repeat exactly.
EXACT = (
    "engine.rows_kept", "engine.usable_f", "engine.held_rounds", "engine.eliminated",
    "async.quorum_fires", "async.deadline_fires", "async.late_rows", "async.stale_dropped",
    "hier.shards", "hier.f_leaf", "hier.f_root", "hier.tolerated_f",
    "agg.bytes_in", "agg.gram_pairs", "attack.bytes_read",
)


def run(root, workload, seed, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


def result(workload, seed, trace):
    code, out = run(ROOT, workload, seed, trace)
    assert code == 0, f"{workload} seed {seed} trace {trace}: exit {code}\n{out}"
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(res, expected, where):
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, where
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected, f"{where}: metrics {got} != {expected}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # hier-10k is not in BENCHMARK.json but still runs on demand.
    for workload in [w["name"] for w in bench["workloads"]] + ["hier-10k"]:
        runs = {}
        for seed in SEEDS:
            for trace, expected in ((0, e2e), (1, layers)):
                repeats = 2 if seed == SEEDS[0] else 1
                runs[seed, trace] = [result(workload, seed, trace) for _ in range(repeats)]
                for res in runs[seed, trace]:
                    check_metrics(res, expected, f"{workload} seed {seed} trace {trace}")
        first, second = runs[SEEDS[0], 0]
        assert (first["metrics"]["dist_to_honest_min"]["value"]
                == second["metrics"]["dist_to_honest_min"]["value"]), workload
        first, second = runs[SEEDS[0], 1]
        for name in EXACT:
            assert first["metrics"][name] == second["metrics"][name], f"{workload}: {name}"
        print(f"ok  {workload}")

    # Without the library sources the build must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(bare, bench["workloads"][0]["name"], SEEDS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and '"correct"' not in out, "bare checkout must fail without a result"
    print("ok  bare checkout fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
