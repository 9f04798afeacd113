#!/usr/bin/env python3
"""Builds parfact and the benchmark driver from this checkout, runs one
workload in a process of its own and prints its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced replay with --trace 1. The
line before it holds the host block (nproc, GEMM Gflop/s, compiler, git sha
and, for timed runs, the host steal share of the timed phase). Build output
and the traced run's layer table go to standard error. Everything a run
leaves behind is under .bench_build/ in the checkout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "parfact_bench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
WORKLOADS = ("cold_solve", "refactor_stream", "service_mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds parfact_bench; False if either step fails."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "parfact_bench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            return False
    return True


def git_sha():
    # Only this checkout's own repository counts; a driver checkout is no
    # git repository and may sit inside an unrelated one.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(args, extra=()):
    """Runs parfact_bench; returns its stdout lines, or None on failure."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--git-sha", git_sha(), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return None
    if done.returncode != 0:
        log(f"parfact_bench exited with code {done.returncode}")
        return None
    return done.stdout.strip().splitlines()


def check_result(lines, trace):
    """The last line must be the result object, with every promised metric."""
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got.items())} differ from {sorted(want.items())}"
    if result["attempted"] < 1:
        return "no request attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        log("build failed")
        return 1
    lines = run_binary(args)
    if lines is None:
        return 1
    problem = check_result(lines, args.trace)
    if problem is not None:
        log(f"malformed result: {problem}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
