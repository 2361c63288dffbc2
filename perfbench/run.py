#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ds1_q1_ingest --seed 1 --seconds 50 --trace 0

The benchmark is compiled from this checkout's sources (perfbench/ plus
../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; an existing build is reused incrementally. Build output
goes to stderr. perfbench_e2e writes its trace CSV and spans under .bench_out/.
Its stdout passes through: the last line is the JSON result. The
exit code is perfbench_e2e's (1 on any correctness mismatch). Without the
repository's sources the build fails and no result is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ds1_q1_ingest", "ds1_q2_kleene", "ds1_q1_hybrid")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configures (once) and builds perfbench_e2e; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j3", "--target", "perfbench_e2e"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"build step failed ({rc}): {' '.join(cmd)}", file=sys.stderr)
            return None
    exe = os.path.join(out, "perfbench_e2e")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build(build_dir())
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
