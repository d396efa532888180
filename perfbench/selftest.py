#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale; finishes in seconds.

Run from the repository root:  python3 perfbench/selftest.py

It builds the benchmark (as run.py does), then checks that
 - the binary's metric table and BENCHMARK.json agree on every name,
   unit and direction, and every metric has a unit and a direction;
 - every workload of the binary, traced and untraced, passes its
   correctness gate
   and prints exactly the metrics BENCHMARK.json lists, with units;
 - per-layer counters sum to their totals, e.g. the lanes' stream
   lines equal the DRAM's lines on static-stream;
 - the traced run writes well-formed spans covering every layer.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE_FACTOR = "0.0625"
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def run_binary(binary, workload, trace, work):
    spans = os.path.join(work, f"spans-{workload}.json")
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "11", "--seconds", "0.2",
         "--trace", str(trace), "--scale-factor", SCALE_FACTOR,
         "--work-dir", os.path.join(work, f"{workload}-{trace}"),
         "--spans", spans],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}")
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{workload} trace={trace}: correctness gate failed\n{out.stdout}")
    return result, spans


def check_table(binary, bench):
    rows = subprocess.run([binary, "--describe"], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.splitlines()[1:]
    table, workloads = {}, []
    for row in rows:
        f = row.split()
        if f[0] == "workload":
            workloads.append(f[1])
        else:
            table[f[0]] = {"unit": f[1], "better": f[2], "kind": f[4]}
    listed = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            listed[m["name"]] = {"unit": m["unit"], "better": m["better"], "kind": kind}
    differ = sorted(k for k in set(table) | set(listed) if table.get(k) != listed.get(k))
    check(not differ, f"binary metric table differs from BENCHMARK.json on {differ}")
    for name, m in table.items():
        check(m["unit"] and m["better"] in ("higher", "lower"),
              f"{name}: needs a unit and a direction")
    listed = [w["name"] for w in bench["workloads"]]
    check(set(listed) <= set(workloads),
          f"BENCHMARK.json names workloads the binary lacks: {set(listed) - set(workloads)}")
    return workloads


def check_invariants(workload, e2e, layer):
    v = {k: x["value"] for k, x in layer.items()}
    frac = sum(v[f"accel.frac.{c}"] for c in ("busy", "memWait", "nocWait", "idle"))
    check(close(frac, 1.0), f"{workload}: lane cycle classes sum to {frac}, not 1")
    check(v["cache.hit_frac"] == 1.0, f"{workload}: warm sweep hit_frac {v['cache.hit_frac']}")
    for k, x in v.items():
        if k.startswith("host.") and k.endswith("_frac") and k != "host.unattributed_frac":
            check(0.0 <= x <= 1.0, f"{workload}: {k}={x} outside [0, 1]")
    check(v["task.completed"] > 0 and v["sim.ticks"] > 0, f"{workload}: no work counted")
    check(v["spatial.landing_lines"] <= v["spatial.dram_lines_saved"],
          f"{workload}: landing lines exceed the DRAM lines they saved")
    if workload == "static-stream":
        # Without multicast, forwarding or suppression every line a
        # lane's stream engines move is one DRAM line.
        check(v["stream.read_lines"] == v["mem.lines_read"],
              f"static-stream: stream.read_lines {v['stream.read_lines']} != "
              f"mem.lines_read {v['mem.lines_read']}")
        check(v["stream.write_lines"] == v["mem.lines_written"],
              f"static-stream: stream.write_lines {v['stream.write_lines']} != "
              f"mem.lines_written {v['mem.lines_written']}")
        for k in ("noc.mcast_packets", "task.pipes_activated", "spatial.forwards"):
            check(v[k] == 0, f"static-stream: {k}={v[k]} on the static baseline")
        check(e2e["speedup_vs_static"]["value"] == 1.0, "static-stream: speedup != 1")
    if workload == "taskstream":
        check(v["task.pipes_activated"] > 0 and v["noc.mcast_packets"] > 0,
              "taskstream: pipelines or multicast never engaged")
    if workload == "spatial-forward":
        check(v["spatial.forwards"] > 0 and v["task.spawned"] > 0,
              "spatial-forward: no forwards or no run-time spawns")


def check_spans(workload, path):
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    for s in spans:
        check(s["parent"] < s["id"] and s["start_s"] <= s["end_s"],
              f"{workload}: malformed span {s}")
    layers = {s["layer"] for s in spans}
    for layer in ("workloads", "accel", "cgra", "spatial", "driver", "cache", "analysis"):
        check(layer in layers, f"{workload}: no span in layer {layer}")
    check(set(doc["self_s"]) == layers, f"{workload}: self time misses a layer")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = run.build()
    work = os.path.join(run.build_dir(), "selftest")
    os.makedirs(work, exist_ok=True)
    # Every workload the binary has, including any BENCHMARK.json omits.
    for name in check_table(binary, bench):
        e2e, _ = run_binary(binary, name, 0, work)
        layer, spans = run_binary(binary, name, 1, work)
        for result, kind in ((e2e, "end_to_end"), (layer, "per_layer")):
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: x["unit"] for k, x in metrics.items()}
            check(got == want, f"{name}: printed {kind} metrics differ from BENCHMARK.json")
            for k, x in metrics.items():
                check(isinstance(x["value"], (int, float)) and math.isfinite(x["value"]),
                      f"{name}: {k} is not a finite number")
                if kind == "end_to_end":
                    check(x["value"] > 0, f"{name}: end-to-end {k} is not positive")
        check_invariants(name, e2e["metrics"], layer["metrics"])
        check_spans(name, spans)
        print(f"selftest: {name} checked", file=sys.stderr)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
