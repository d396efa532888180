#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload taskstream --seed 7 --seconds 20 --trace 0

The build tree is $CARGO_TARGET_DIR when set, else .bench_build.  Build
output goes to stderr; the binary's last stdout line is the result JSON.
Every other flag is passed through to the binary (see perfbench.cc).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure unless an earlier configure produced a build system;
    # later source changes re-run it from inside the build.
    if not any(os.path.exists(os.path.join(bdir, f)) for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", default="7")
    ap.add_argument("--trace", default="0")
    known, _ = ap.parse_known_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    bdir = build_dir()
    cmd = [binary, *sys.argv[1:],
           "--work-dir", os.path.join(bdir, "work", str(os.getpid()))]
    if known.trace == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{known.workload}-s{known.seed}.json")]
    sys.stdout.flush()
    # Forward SIGTERM so a stopped benchmark never leaves the binary running.
    child = subprocess.Popen(cmd)
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
