#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and checks it against its bounds.

Runs the command of BENCHMARK.json (repository root) once per seed on each
workload. With --sets 2 it runs two sets, interleaved run by run (A B A B
...), each run on a seed of its own. For every end-to-end metric it prints
each set's median and quartiles (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median, and whether

  - the spread stays within the metric's bound, and
  - the two sets' medians differ by no more than the bound, as a share of
    the first set's median, in either direction.

Example (from the repository root):

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --workloads ds1_q2_kleene --runs 5

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1000


def run_once(spec, workload, seed, trace=0):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def differ_by(first, second):
    """Share of the first median by which the second differs, either way."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / abs(first)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all",
                    help="comma-separated names, or 'all' (default)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    metrics = spec["end_to_end"]

    ok = True
    for wi, name in enumerate(names):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = SEED_BASE + 100000 * wi + 1000 * s + i
                sets[s].append(run_once(spec, name, seed))
                print(f"# {name} set {s} run {i} seed {seed} done", file=sys.stderr)
        print(f"\n{name}")
        print(f"{'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            medians = []
            for s, runs in enumerate(sets):
                values = [r[m["name"]] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / abs(q2) if q2 != 0 else (0.0 if q3 == q1 else float("inf"))
                medians.append(q2)
                verdict = "ok"
                if spread > m["bound"]:
                    verdict = "SPREAD>BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict = "spread>bound/3"
                print(f"{m['name']:<18} {s:>3} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
            if len(medians) == 2:
                d = differ_by(medians[0], medians[1])
                agree = d <= m["bound"]
                ok = ok and agree
                print(f"{'':<18} medians differ by {d:.4f} "
                      f"({'agree' if agree else 'DISAGREE'} within {m['bound']})")
    print("\nALL CHECKS PASS" if ok else "\nSOME CHECKS FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
