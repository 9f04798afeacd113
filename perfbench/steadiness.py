#!/usr/bin/env python3
"""Steadiness record of the end-to-end metrics.

Runs every workload of BENCHMARK.json on a range of seeds through run.py,
exactly as the benchmark's contract does, and writes per workload and
metric the median, the quartiles and the spread (quartile distance as a
share of the median, statistics.quantiles(values, n=4)), next to each
run's host steal share, to perfbench/results/<label>.json. A spread at or
above a third of the metric's bound is flagged `unsteady`: later changes
should read that metric on that workload with care.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--label set1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--label", default="steadiness")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])

    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            started = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  cwd=ROOT)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            host, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({
                "seed": seed,
                "elapsed_s": round(time.time() - started, 1),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "steal_frac": host["host"]["steal_frac"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()) +
                f" steal={runs[-1]['steal_frac']:.3f}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "iqr": q3 - q1, "spread": spread, "bound": bound,
                "unsteady": name != "setup_s" and spread >= bound / 3,
            }
            print(f"  {name:16s} median={summary[name]['median']:.4g} "
                  f"spread={spread:.3f} bound={bound}"
                  f"{'  UNSTEADY' if summary[name]['unsteady'] else ''}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
