#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload grid-10k --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a cargo package of its own) from the sources in
this checkout, then runs it on the workload's parameters from
`perfbench/workloads.json`:

* `--trace 0` runs the obs-off build and reports the end-to-end metrics
  of BENCHMARK.json;
* `--trace 1` runs the obs-on build (`--features obs`) and reports the
  per-layer metrics, then serves the same bundle from the obs-off build
  to price the tracing (`obs.trace_overhead_frac`).

`--smoke` shrinks every workload to about 400 nodes and short phases.
The last line of standard output is the result object; a build or
verification failure exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

POOL = 4096  # pairs the single and batch requests cycle through
PATH_POOL = 64  # witness-path pairs (a prefix of the pool)
SETUP_REPS = 3  # set-ups per run; setup_s and build_s are their medians
RUN_TIMEOUT_S = 170
# One worker per batch engine: on the shared 2-vCPU host a second busy
# thread loses ~11% of its time to stalls and slows the first, so two
# busy threads make every figure noisier without measuring the program.
RUN_ENV = dict(os.environ, PSEP_THREADS="1")
SMOKE = {"nodes": 400, "pool": 512, "path_pool": 16, "setup_reps": 1}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(base)


def build(traced):
    """Builds the obs-off or obs-on binary and returns its path."""
    tdir = os.path.join(target_dir(), "perfbench-obs" if traced else "perfbench")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", tdir,
    ]
    if traced:
        cmd += ["--features", "obs"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(tdir, "release", "psep-perfbench")


def run(binary, mode, params, extra=()):
    """Runs the binary and returns its result object."""
    args = [binary, "--mode", mode]
    for key, value in params.items():
        args += ["--" + key, str(value)]
    args += list(extra)
    try:
        proc = subprocess.run(
            args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=RUN_ENV
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{mode} run failed (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} run printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    opts = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if opts.workload not in workloads:
        fail(f"unknown workload {opts.workload!r} (known: {', '.join(workloads)})")
    w = workloads[opts.workload]
    params = {
        "family": w["graph"],
        "nodes": w["nodes"],
        "seed": opts.seed,
        "seconds": opts.seconds,
        "pool": POOL,
        "path-pool": PATH_POOL,
        "setup-reps": SETUP_REPS,
    }
    if opts.smoke:
        params.update({k.replace("_", "-"): v for k, v in SMOKE.items()})

    if opts.trace == 0:
        result = run(build(False), "e2e", params)
        wanted = bench["end_to_end"]
    else:
        traced, untraced = build(True), build(False)
        bundle = os.path.join(target_dir(), f"perfbench-{os.getpid()}.bundle")
        try:
            result = run(traced, "trace", params, ["--bundle", bundle])
            helper = run(untraced, "overhead", params, ["--bundle", bundle])
        finally:
            if os.path.exists(bundle):
                os.remove(bundle)
        m = result["metrics"]
        traced_rate = m.pop("obs.traced_query_many_pairs_per_s")["value"]
        untraced_rate = helper["metrics"]["obs.untraced_query_many_pairs_per_s"]["value"]
        m["obs.trace_overhead_frac"] = {
            "value": untraced_rate / traced_rate - 1.0,
            "unit": "ratio",
        }
        result["attempted"] += helper["attempted"]
        result["failed"] += helper["failed"]
        result["correct"] = result["correct"] and helper["correct"]
        wanted = bench["per_layer"]

    got = result["metrics"]
    expect = {m["name"]: m["unit"] for m in wanted}
    have = {name: v["unit"] for name, v in got.items()}
    if have != expect:
        fail(f"metric set differs from BENCHMARK.json: got {sorted(have.items())}")
    if any(not isinstance(v["value"], (int, float)) for v in got.values()):
        fail("a metric is not a number")
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: got[name] for name in expect},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
