#!/usr/bin/env python3
"""Repeatability check: do two sets of runs of one build agree?

    python3 perfbench/repeat.py [--runs 5] [--workload NAME ...] [--seed 100]

Runs every workload (or the named ones) 2 x --runs times through
perfbench/run.py, each run with its own seed, alternating between set A and
set B. For each end-to-end metric of BENCHMARK.json it reports per
workload:

  spread     quartile distance over median, per set and over both sets
             (statistics.quantiles)
  shift      how much worse set B's median is than set A's, as a share
  verdict    "agree"      both spreads and the shift are within the bound
             "unresolved" a spread is wider than the bound
             "DISAGREE"   spreads are within the bound but the shift is not

Exits 1 when any pairing disagrees or any run fails its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"repeat: {workload} seed {seed} printed nothing "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=100, help="first seed")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    print(f"{'workload':13s} {'metric':13s} {'median A':>11s} {'median B':>11s}"
          f" {'spread A':>9s} {'spread B':>9s} {'spread':>7s} {'shift':>7s}"
          f" {'bound':>6s}"
          "  verdict")
    for w in workloads:
        sets = ({}, {})
        for k in range(2 * args.runs):
            res = run(w, args.seed + k, spec["run_seconds"])
            if not res["correct"]:
                print(f"{w}: seed {args.seed + k} failed its output checks")
                ok = False
            for name, m in res["metrics"].items():
                sets[k % 2].setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb, sab = spread(a), spread(b), spread(a + b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bound = m["bound"]
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse <= bound:
                verdict = "agree"
            else:
                verdict = "DISAGREE"
                ok = False
            print(f"{w:13s} {m['name']:13s} {ma:11.4f} {mb:11.4f} {sa:9.3f}"
                  f" {sb:9.3f} {sab:7.3f} {worse:7.3f} {bound:6.2f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
