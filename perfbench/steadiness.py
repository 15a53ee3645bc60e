#!/usr/bin/env python3
"""Steadiness check for griddecl's benchmark.

Runs each workload repeatedly and prints, per end-to-end metric, the median,
the quartiles and the spread (interquartile distance as a share of the
median, from statistics.quantiles(values, n=4)) next to the bound recorded
in BENCHMARK.json. Run it from the root of a checkout:

    python3 perfbench/steadiness.py                       # 10 seeds per workload
    python3 perfbench/steadiness.py --runs 5 --workloads serve_cold
    python3 perfbench/steadiness.py --checkout-b ../other  # alternate two builds

Seed mode runs seeds base, base+1, ... one after another. Two-build mode
alternates the current checkout (A) and --checkout-b (B) on the same seeds,
changing which side goes first every pair, and also prints B's median
against A's. A spread at or above a third of its bound marks the metric
UNSTEADY; a failed-operation share that differs between runs marks the
workload likewise. The bounds in BENCHMARK.json come from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    # Wall time of the whole run, set-up and checks included: what the
    # run count times this must fit in.
    print(f"   {workload} seed {seed}: {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(label, runs, bounds):
    print(f"\n== {label}: {len(runs)} runs")
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"   correct={correct}  failed-share(s)={sorted(shares)}"
          + ("" if len(shares) == 1 else "  UNSTEADY"))
    print(f"   {'metric':28} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    medians = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        medians[name] = med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and s >= bound / 3:
            flag = "  UNSTEADY"
        print(f"   {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f}"
              f" {bound if bound is not None else '-':>6}{flag}")
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=0,
                        help="run length; default: BENCHMARK.json run_seconds")
    parser.add_argument("--checkout-b", default="",
                        help="second checkout to alternate with this one")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    for workload in workloads:
        if not args.checkout_b:
            runs = [run_once(root, workload, args.seed + i, seconds)
                    for i in range(args.runs)]
            summarize(f"{workload} (seeds {args.seed}..{args.seed + args.runs - 1})",
                      runs, bounds)
            continue
        side_a, side_b = [], []
        for i in range(args.runs):
            seed = args.seed + i
            order = [(root, side_a), (args.checkout_b, side_b)]
            for checkout, sink in (order if i % 2 == 0 else order[::-1]):
                sink.append(run_once(checkout, workload, seed, seconds))
        med_a = summarize(f"{workload} A (this checkout)", side_a, bounds)
        med_b = summarize(f"{workload} B ({args.checkout_b})", side_b, bounds)
        print("   B vs A median:")
        for name, a in med_a.items():
            print(f"   {name:28} {(med_b[name] - a) / a:+8.4f}")


if __name__ == "__main__":
    main()
