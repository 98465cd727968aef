#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny sizes, short phases.

    python3 perfbench/smoke_test.py

For every workload, in both the untraced and the traced run, checks that
the result line carries exactly the metrics of BENCHMARK.json with their
units, that every answer was correct, and that the pre-timing
verification ran. Then checks that the benchmark fails cleanly (non-zero
exit, no result line) in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def check(cond, msg):
    if not cond:
        print(f"smoke: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(cwd, workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} --trace {trace}"
            proc = run(ROOT, w["name"], trace)
            check(proc.returncode == 0, f"{name} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name}: metrics {sorted(got.items())}")
            check("verified:" in proc.stderr, f"{name}: no verification report on stderr")
            print(f"smoke: ok {name}: {len(got)} metrics, {result['attempted']} requests")

    # A directory with only BENCHMARK.json and the benchmark has no
    # program to build: the run must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = run(bare, bench["workloads"][0]["name"], 0, env)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "the bare directory run succeeded")
    check(proc.stdout.strip() == "", f"the bare directory run printed {proc.stdout!r}")
    print("smoke: ok bare directory fails without a result")


if __name__ == "__main__":
    main()
