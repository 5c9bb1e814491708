#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload repro|archive|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds perfbench/ (the
repository's libraries and experiments plus the benchmark binary) into
$CARGO_TARGET_DIR or .bench_build; results and trace files go to
.bench_out/. The last line of standard output is one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json names for the
mode: its end_to_end metrics with --trace 0, its per_layer ones with
--trace 1.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = 3
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    """Configures once and builds `targets`; serialised by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "bench", "experiments")):
        fail("no bgpatoms sources next to perfbench/ (src/, bench/experiments/)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                      "--target"] + targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 1)
    return out


def git_describe():
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(args):
    out = build(["perfbench"])
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    suffix = "-trace.json" if args.trace else "-metrics.json"
    result_path = os.path.join(out_dir, "%s-seed%d%s" % (args.workload, args.seed, suffix))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--describe", git_describe()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    if code != 0 or not os.path.isfile(result_path):
        fail("%s run failed (exit %d)" % (args.workload, code), 1)
    with open(result_path) as f:
        result = json.load(f)

    measured = result["metrics"]
    metrics = {}
    for m in declared_metrics(args.trace):
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("run did not report %s in %s" % (m["name"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def self_test():
    out = build(["perfbench_selftest"])
    code = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    code |= subprocess.run([sys.executable, "-B", "-m", "unittest", "-q",
                            "test_compare"], cwd=HERE).returncode
    sys.exit(1 if code else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["repro", "archive", "serve"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args)


if __name__ == "__main__":
    main()
