#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--seeds 1-10]

Runs every workload of BENCHMARK.json once per seed in each of two sets
through run.py (--trace 0), interleaving the sets (the order of the sets
alternates from one seed to the next) so that slow drift of the machine
hits both alike. For each workload, metric and set it prints the median
and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, then
how far the second set's median is from the first set's. Exit status 1
when a spread or a median shift (either way) exceeds its bound, or a run
fails or is not correct.
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
SETS = 2


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.time() - t0
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i, seed in enumerate(seeds):
        order = list(range(SETS))
        if i % 2:
            order.reverse()
        for s in order:
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                print("set %d %-8s seed %-4d %5.1fs correct=%s failed=%d/%d %s" % (
                    s, w, seed, r["elapsed_s"], r["correct"], r["failed"], r["attempted"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
                    flush=True)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-12s %3s %12s %12s %12s %8s %8s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound", "shift"))
        for name, bound in bounds.items():
            sums = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in results[w]]
            for s, summary in enumerate(sums):
                shift = summary["median"] / sums[0]["median"] - 1 if s else 0.0
                bad = summary["spread"] > bound or abs(shift) > bound
                ok &= not bad
                print("  %-12s %3d %12.6g %12.6g %12.6g %8.4f %8.3f %+8.4f%s" % (
                    name, s, summary["median"], summary["q1"], summary["q3"],
                    summary["spread"], bound, shift, "  OVER BOUND" if bad else ""))
        for runs in results[w]:
            ok &= all(r["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
