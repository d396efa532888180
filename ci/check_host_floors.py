#!/usr/bin/env python3
"""Gate simulator host throughput against the host-* perf floors,
NoC work stealing against the steal-* floors, and the spatial mapper
against the spatial-* floors.

Usage: check_host_floors.py <bench_host.json> <perf-floors.txt>
       check_host_floors.py --steal <baseline.json> <steal.json> \\
                            <perf-floors.txt>
       check_host_floors.py --spatial <perf-floors.txt> \\
                            <static.json> <spatial.json> [...pairs]

In --steal mode the two JSON files are per-run bench dumps written by
delta-sweep --bench-json (same workload/seed/scale, configs `work`
and `work-steal`).  The score is the simulated-cycle speedup
baseline/steal — stealing on top of work-aware placement must beat
work-aware placement alone — gated against the `steal-imbalance`
floor.  Simulated cycles are deterministic, so unlike the host
throughput floors this one carries no machine-noise slack.

In --spatial mode the remaining arguments are (static, spatial)
pairs of per-run bench dumps for pipeline-shaped workloads.  Each
spatial run must be correct and must report
delta.attrib.spatial.dramLinesSaved > 0 (an inert forwarder scores
no speedup); the geomean static/spatial simulated-cycle speedup over
all pairs is gated against the `spatial-stream-geomean` floor.
Deterministic like --steal: no machine-noise slack.

In the default mode:

Reads google-benchmark JSON output from bench_host, computes the
ff:1 / ff:0 speedup of every benchmark from its sim_cycles_per_sec
counters, and checks:

  host-idle-speedup         floor on BM_SyntheticIdle's speedup
  host-real-geomean         floor on the geomean speedup of the real
                            workload benches (everything except the
                            BM_Synthetic* pair)

Prints a Markdown table (suitable for $GITHUB_STEP_SUMMARY) to
stdout and exits non-zero when a floor is violated.  Failures also
emit GitHub `::error` workflow commands on stderr (stdout is
redirected into the step summary, where they would be swallowed), so
violations surface as annotations on the PR itself.
"""

import json
import math
import sys


def annotate(title, message):
    """Emit a GitHub Actions error annotation (plus a plain line for
    non-Actions runs).  Both go to stderr: stdout is the step summary.
    """
    print(f"check_host_floors: {title}: {message}", file=sys.stderr)
    print(f"::error title={title}::{message}", file=sys.stderr)


def load_floors(path):
    floors = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 2 or parts[0].startswith("#"):
                continue
            if parts[0].startswith(("host-", "steal-", "spatial-")):
                floors[parts[0]] = float(parts[1])
    return floors


def check_steal(baseline_path, steal_path, floors_path):
    """Gate the work-steal-vs-work speedup against steal-imbalance."""
    with open(baseline_path) as f:
        base = json.load(f)
    with open(steal_path) as f:
        steal = json.load(f)

    for tag, run in (("baseline", base), ("steal", steal)):
        if not run.get("correct", False):
            annotate(
                "STEAL RUN INCORRECT",
                f"{tag} run reports correct=false",
            )
            sys.exit(1)

    floor = load_floors(floors_path).get("steal-imbalance")
    if floor is None:
        print(
            f"- `steal-imbalance`: no floor configured in "
            f"{floors_path}, skipped",
            file=sys.stderr,
        )
        sys.exit(0)

    stats = steal.get("stats", {})
    stolen = stats.get("delta.attrib.steal.tasksStolen", 0)
    requests = stats.get("delta.attrib.steal.requests", 0)
    grants = stats.get("delta.attrib.steal.grants", 0)
    speedup = (
        base["cycles"] / steal["cycles"] if steal["cycles"] > 0 else 0.0
    )

    print(
        f"### Work stealing ({base.get('workload', '?')}, "
        f"work-steal vs work)"
    )
    print()
    print("| config | cycles | tasks stolen | probes granted |")
    print("| --- | --- | --- | --- |")
    print(f"| work | {base['cycles']:,.0f} | | |")
    print(
        f"| work-steal | {steal['cycles']:,.0f} | {stolen:.0f} "
        f"| {grants:.0f}/{requests:.0f} |"
    )
    print()

    checks = [
        (speedup >= floor, f"speedup {speedup:.3f}x vs floor "
                           f"{floor:.2f}x"),
        (stolen > 0, f"{stolen:.0f} tasks stolen (must be > 0: an "
                     f"inert steal machine scores no speedup)"),
    ]
    failed = False
    for ok, desc in checks:
        verdict = "ok" if ok else "**FLOOR VIOLATED**"
        print(f"- `steal-imbalance`: {desc} — {verdict}")
        if not ok:
            failed = True
            annotate("FLOOR VIOLATED", f"steal-imbalance: {desc}")
    sys.exit(1 if failed else 0)


def check_spatial(floors_path, paths):
    """Gate the spatial-vs-static geomean speedup and per-workload
    DRAM-traffic savings against spatial-stream-geomean."""
    if not paths or len(paths) % 2 != 0:
        sys.exit("--spatial needs (static, spatial) file pairs")

    floor = load_floors(floors_path).get("spatial-stream-geomean")
    if floor is None:
        print(
            f"- `spatial-stream-geomean`: no floor configured in "
            f"{floors_path}, skipped",
            file=sys.stderr,
        )
        sys.exit(0)

    print("### Spatial mapping (spatial vs static, simulated cycles)")
    print()
    print(
        "| workload | static | spatial | speedup | DRAM lines saved "
        "| spills |"
    )
    print("| --- | --- | --- | --- | --- | --- |")

    failed = False
    ratios = []
    for static_path, spatial_path in zip(paths[::2], paths[1::2]):
        with open(static_path) as f:
            base = json.load(f)
        with open(spatial_path) as f:
            spat = json.load(f)
        wk = spat.get("workload", "?")
        for tag, run in (("static", base), ("spatial", spat)):
            if not run.get("correct", False):
                annotate(
                    "SPATIAL RUN INCORRECT",
                    f"{wk} {tag} run reports correct=false",
                )
                failed = True
        stats = spat.get("stats", {})
        saved = stats.get("delta.attrib.spatial.dramLinesSaved", 0)
        spills = stats.get("delta.spatial.spills", 0)
        ratio = (
            base["cycles"] / spat["cycles"]
            if spat["cycles"] > 0
            else 0.0
        )
        ratios.append(ratio)
        print(
            f"| {wk} | {base['cycles']:,.0f} | {spat['cycles']:,.0f} "
            f"| {ratio:.3f}x | {saved:,.0f} | {spills:.0f} |"
        )
        if saved <= 0:
            failed = True
            annotate(
                "FLOOR VIOLATED",
                f"spatial-stream-geomean: {wk} saved no DRAM lines "
                f"(an inert forwarder scores no speedup)",
            )
    print()

    geomean = (
        math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        if all(r > 0 for r in ratios)
        else 0.0
    )
    ok = geomean >= floor
    verdict = "ok" if ok else "**FLOOR VIOLATED**"
    print(
        f"- `spatial-stream-geomean`: {geomean:.3f}x vs floor "
        f"{floor:.2f}x — {verdict}"
    )
    if not ok:
        failed = True
        annotate(
            "FLOOR VIOLATED",
            f"spatial-stream-geomean observed {geomean:.3f}x < floor "
            f"{floor:.2f}x",
        )
    sys.exit(1 if failed else 0)


def main():
    if len(sys.argv) == 5 and sys.argv[1] == "--steal":
        check_steal(sys.argv[2], sys.argv[3], sys.argv[4])
    if len(sys.argv) >= 3 and sys.argv[1] == "--spatial":
        check_spatial(sys.argv[2], sys.argv[3:])
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        report = json.load(f)

    rate = {}  # benchmark family -> {ff: sim_cycles_per_sec}
    for b in report["benchmarks"]:
        name, _, arg = b["name"].partition("/")
        ff = arg == "ff:1"
        rate.setdefault(name, {})[ff] = b["sim_cycles_per_sec"]

    speedup = {}
    incomplete = []  # families that cannot be scored, with the reason
    for name, r in sorted(rate.items()):
        if True not in r:
            incomplete.append(f"{name}: no ff:1 run in {sys.argv[1]}")
        elif False not in r:
            incomplete.append(f"{name}: no ff:0 run in {sys.argv[1]}")
        elif r[False] <= 0:
            incomplete.append(f"{name}: ff:0 rate is {r[False]}")
        else:
            speedup[name] = r[True] / r[False]

    real = [s for n, s in speedup.items() if not n.startswith("BM_Synthetic")]
    geomean = math.exp(sum(math.log(s) for s in real) / len(real)) if real else 0.0

    floors = load_floors(sys.argv[2])
    checks = [
        (
            "host-idle-speedup",
            speedup.get("BM_SyntheticIdle"),
            "BM_SyntheticIdle speedup",
        ),
        (
            "host-real-geomean",
            geomean if real else None,
            f"geomean over {len(real)} real-workload benches",
        ),
    ]

    print("### Host throughput (bench_host, ff:1 vs ff:0)")
    print()
    print("| benchmark | ff:1 cycles/s | ff:0 cycles/s | speedup |")
    print("| --- | --- | --- | --- |")
    for name, r in sorted(rate.items()):
        print(
            f"| {name} | {r.get(True, 0):,.0f} | {r.get(False, 0):,.0f} "
            f"| {speedup.get(name, 0):.2f}x |"
        )
    print(f"| real-workload geomean | | | {geomean:.2f}x |")
    print()

    for reason in incomplete:
        print(f"- unscored benchmark — {reason}")

    failed = False
    for key, value, source in checks:
        floor = floors.get(key)
        if floor is None:
            print(
                f"- `{key}`: no floor configured in {sys.argv[2]}, skipped",
                file=sys.stderr,
            )
            continue
        if value is None:
            failed = True
            print(f"- `{key}`: **NO DATA** ({source}) vs floor {floor:.2f}x")
            annotate(
                "FLOOR UNSCORABLE",
                f"{key} has no observed value ({source}); "
                f"floor {floor:.2f}x",
            )
            continue
        ok = value >= floor
        failed |= not ok
        verdict = "ok" if ok else "**FLOOR VIOLATED**"
        print(f"- `{key}`: {value:.2f}x vs floor {floor:.2f}x — {verdict}")
        if not ok:
            annotate(
                "FLOOR VIOLATED",
                f"{key} observed {value:.2f}x < floor {floor:.2f}x "
                f"({source})",
            )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
