#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

For every workload it runs `run.py` once per seed and prints, per
metric, the median, the first and third quartiles, and the spread
(quartile distance as a share of the median) next to the metric's bound
in BENCHMARK.json.  Run from the repository root:

    python3 perfbench/baseline.py --workloads taskstream --seeds 1-10
    python3 perfbench/baseline.py --seeds 1-10 --json baseline.json

Exit status is 1 when a run fails or a spread (except setup_s) exceeds
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           + out.stdout)
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    record = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"  {workload} seed {seed}: done", file=sys.stderr)
        record[workload] = values
        print(f"{workload}: {len(values[metrics[0]['name']])} runs")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag, ok = "  OVER", False
            elif bound is not None and spread > bound / 3:
                flag = "  (>1/3 bound)"
            print(f"  {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
