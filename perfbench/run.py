#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload train_suite|stream_fresh \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library and the
load generator (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Human-readable lines go first; the last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a traced run that
follows an untraced one, so the tracing overhead is the difference of the
two; each of the two measures for half of --seconds. Exits 1 when an output
check failed, 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_suite", "stream_fresh")
# Wall-clock budget for the measured processes of one run (the build before
# them is not counted).
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench_bin; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_bin")


def run_once(binary, args, trace, seconds, deadline):
    """One process of the load generator; returns its parsed JSON."""
    work = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}-{trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    if trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def headline(workload, e2e):
    """The workload's user-facing operation, its median in ms and the
    sample count: one suite pass for train_suite, one routed predict
    (timed from when it was due) for stream_fresh."""
    if workload == "train_suite":
        return e2e["train.suite_s"] * 1e3, e2e["train.passes"]
    return e2e["predict.p50_ms"], e2e["predict.samples"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    deadline = time.monotonic() + RUN_BUDGET_S
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_once(binary, args, 0, seconds, deadline)
    runs = [untraced]
    traced = None
    if args.trace:
        traced = run_once(binary, args, 1, seconds, deadline)
        runs.append(traced)

    e2e = {k: v["value"] for k, v in untraced["e2e"].items()}
    units = {k: v["unit"] for k, v in untraced["e2e"].items()}
    p50, samples = headline(args.workload, e2e)
    e2e_out = {"setup_s": e2e["setup_s"], "op.p50_ms": p50,
               "peak_rss_mb": e2e["peak_rss_mb"]}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = failed == 0 and attempted > 0

    # Human-readable report: every metric by name with its unit.
    env = untraced["facts"]["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in sorted(e2e):
        print(f"  {name:26s} {e2e[name]:14.6f} {units[name]}")
    print(f"  {'fail_ratio':26s} {failed / max(1, attempted):14.6f} ratio"
          f"  ({failed} of {attempted})")
    print(f"  op.p50_ms = {p50:.4f} ms over {samples:.0f} samples")
    for key in ("setup_each_s", "picks", "published_layouts",
                "retrain_new_examples", "retrain_s", "retrain_iterations"):
        if key in untraced["facts"]:
            print(f"  {key}: {json.dumps(untraced['facts'][key])}")
    for label, run in zip(("untraced", "traced"), runs):
        for name, (att, bad) in sorted(run["checks"].items()):
            print(f"  check ({label}) {name}: {att} attempted, {bad} failed")
    for f in failures:
        print(f"  FAILED: {f}")

    if args.trace:
        layer = {k: v["value"] for k, v in traced["layer"].items()}
        lunits = {k: v["unit"] for k, v in traced["layer"].items()}
        t_p50 = headline(args.workload, {
            k: v["value"] for k, v in traced["e2e"].items()})[0]
        layer["trace.overhead_p50_pct"] = (t_p50 - p50) / p50 * 100.0
        lunits["trace.overhead_p50_pct"] = "%"
        for name, v in traced["e2e"].items():
            print(f"  traced {name:19s} {v['value']:14.6f} {v['unit']}"
                  f"  (untraced {e2e.get(name, float('nan')):.6f})")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(n for n in layer if declared.get(n) != lunits[n])
        if unknown:
            fail("per-layer metrics not in BENCHMARK.json with this unit: "
                 + ", ".join(unknown))
        idle = sorted(set(declared) - set(layer))
        for name in sorted(layer):
            print(f"  layer {name:26s} {layer[name]:14.6f} {lunits[name]}")
        if idle:
            print("  not exercised by this workload (reported as 0): "
                  + ", ".join(idle))
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in declared.items()}
    else:
        metrics = {m["name"]: {"value": e2e_out[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w") as f:
        json.dump({"result": result, "runs": runs}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
