#!/usr/bin/env python3
"""Builds and runs the routed end-to-end benchmark (see NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload assign_warm --seed 1 --seconds 10 --trace 0

The benchmark binary is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use. Its per-metric lines are passed
through; the last line printed is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("assign_warm", "policy_churn", "restart_cold")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "shard", "shard_router.h")):
        fail(f"no wfrm sources under {os.path.join(ROOT, 'src')}")
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "wfrm_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "wfrm_perfbench")


def wanted_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    names = wanted_metrics(args.trace == 1)

    data_dir = os.path.join(build_dir, f"data-{os.getpid()}")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", data_dir,
               "--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            fail(f"metric {name} missing from the {args.workload} run")
        metrics[name] = m
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
