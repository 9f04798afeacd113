#!/usr/bin/env python3
"""Self-check of the benchmark at its minimal input sizes.

For every workload it asserts that
  * a timed run emits exactly the end-to-end metrics of BENCHMARK.json, each
    with its unit, and verifies every request it attempted;
  * a traced run emits exactly the per-layer metrics, each with its unit;
  * answers deliberately corrupted after their latency stamp are counted as
    failed, never passed.

    python3 perfbench/selftest.py [--binary PATH]

Without --binary it first builds the benchmark as run.py does. Exits 0 when
every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module: build step and expected metrics)

OUT_DIR = os.path.join(run.BUILD_ROOT, "selftest_out")


def bench(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--mini", "--out", OUT_DIR, *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--binary", default=run.BINARY)
    args = ap.parse_args()
    if args.binary == run.BINARY and not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1

    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = bench(args.binary, workload, trace)
            want = run.expected_metrics(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            mode = "traced" if trace else "timed"
            expect(set(result) == run.RESULT_KEYS,
                   f"{workload} {mode}: result has exactly {sorted(run.RESULT_KEYS)}")
            expect(got == want,
                   f"{workload} {mode}: every metric emitted with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{workload} {mode}: every value is a number")
            expect(result["attempted"] >= 1 and result["failed"] == 0
                   and result["correct"] is True,
                   f"{workload} {mode}: {result['attempted']} requests, all verified")

        result = bench(args.binary, workload, 0, "--corrupt-every", "2")
        expect(result["failed"] >= 1 and result["correct"] is False
               and result["failed"] <= result["attempted"],
               f"{workload}: corrupted answers counted failed "
               f"({result['failed']} of {result['attempted']})")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
