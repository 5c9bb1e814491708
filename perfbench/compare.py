#!/usr/bin/env python3
"""Per-layer comparison of two traced benchmark runs.

    python3 perfbench/compare.py BASE-trace.json NEW-trace.json

Both files are written by `run.py ... --trace 1` under .bench_out/. The
tool prints, per layer and per traced call, the self time of each run and
their delta, then every per-layer metric (times, ns per item, shares)
with its delta. Counts must repeat exactly between two runs of the same
inputs: any count that differs (a work count metric, or the number of
spans of a call) is flagged, and the exit status is then 1.
"""
import json
import sys

COUNT_UNITS = ("count", "bytes")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "trace" not in doc:
        raise SystemExit("%s: not a traced run (no trace section)" % path)
    return doc


def pct(base, new):
    return "%+.1f%%" % (100.0 * (new - base) / base) if base else "n/a"


def rows(base, new):
    """(name, base value, new value) for every name in either mapping."""
    for name in sorted(set(base) | set(new)):
        yield name, base.get(name), new.get(name)


def compare(base, new, out=sys.stdout):
    """Prints the comparison; returns the list of flagged count mismatches."""
    flags = []
    for key in ("git_describe", "workload", "seed", "build_type", "obs",
                "threads", "nproc"):
        b, n = base["manifest"].get(key), new["manifest"].get(key)
        out.write("%-14s %s%s\n" % (key, b, "" if b == n else "  ->  %s" % n))
    if base["manifest"].get("seed") != new["manifest"].get("seed"):
        out.write("note: different seeds, so counts are expected to differ\n")

    out.write("\n%-34s %12s %12s %10s\n" % ("layer self time (s)", "base", "new", "delta"))
    for name, b, n in rows(base["trace"]["self_by_layer"], new["trace"]["self_by_layer"]):
        out.write("%-34s %12.6f %12.6f %10s\n" % (name, b or 0.0, n or 0.0, pct(b or 0.0, n or 0.0)))

    out.write("\n%-34s %12s %12s %10s %8s\n" % ("call self time (s)", "base", "new", "delta", "spans"))
    for name, b, n in rows(base["trace"]["self_by_name"], new["trace"]["self_by_name"]):
        bs, ns = (b or {}).get("self_s", 0.0), (n or {}).get("self_s", 0.0)
        bc, nc = (b or {}).get("count"), (n or {}).get("count")
        mark = "" if bc == nc else "  COUNT %s -> %s" % (bc, nc)
        if mark:
            flags.append("spans of %s: %s -> %s" % (name, bc, nc))
        out.write("%-34s %12.6f %12.6f %10s %8s%s\n" % (name, bs, ns, pct(bs, ns), nc, mark))

    out.write("\n%-40s %14s %14s %10s\n" % ("per-layer metric", "base", "new", "delta"))
    for name, b, n in rows(base["metrics"], new["metrics"]):
        if b is None or n is None:
            out.write("%-40s %14s %14s\n" % (name, "-" if b is None else b["value"],
                                            "-" if n is None else n["value"]))
            flags.append("%s reported by one run only" % name)
            continue
        bv, nv = b["value"], n["value"]
        mark = ""
        if b["unit"] in COUNT_UNITS and bv != nv:
            mark = "  COUNT DIFFERS"
            flags.append("%s: %s -> %s" % (name, bv, nv))
        out.write("%-40s %14.6g %14.6g %10s %s%s\n" % (name, bv, nv, pct(bv, nv), b["unit"], mark))

    out.write("\n%d count(s) differ\n" % len(flags))
    for f in flags:
        out.write("  FLAG %s\n" % f)
    return flags


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    flags = compare(load(argv[1]), load(argv[2]))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
