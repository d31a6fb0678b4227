#!/usr/bin/env python3
"""Diff a google-benchmark JSON against its checked-in baseline.

Per-benchmark cpu_time (bench_micro's BENCH_micro.json) is compared by
name; a benchmark may be slower than baseline by at most the tolerance
factor. New/removed benchmarks are reported but do not fail (the set
evolves with the code).

The default tolerance is deliberately loose (5x): CI runners vary a lot,
and the diff exists to catch order-of-magnitude regressions (an
accidentally quadratic probe loop, a lost index), not single-digit
percentages.

Usage: tools/bench_diff.py <current.json> <baseline.json> [--tolerance X]
Exit 1 on any violation.
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def diff_google_benchmark(current, baseline, tol, failures):
    base = {b["name"]: b for b in baseline.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}
    cur = {b["name"]: b for b in current.get("benchmarks", [])
           if b.get("run_type", "iteration") == "iteration"}
    for name in sorted(base.keys() - cur.keys()):
        print("  note: benchmark removed: %s" % name)
    for name in sorted(cur.keys() - base.keys()):
        print("  note: new benchmark (no baseline): %s" % name)
    for name in sorted(cur.keys() & base.keys()):
        b, c = base[name]["cpu_time"], cur[name]["cpu_time"]
        ratio = c / b if b else float("inf")
        marker = ""
        if ratio > tol:
            failures.append("%s: cpu_time %.1f%s vs baseline %.1f%s "
                            "(%.1fx > %.1fx tolerance)"
                            % (name, c, cur[name].get("time_unit", "ns"),
                               b, base[name].get("time_unit", "ns"),
                               ratio, tol))
            marker = "  <-- FAIL"
        print("  %-45s %10.1f vs %10.1f  (%.2fx)%s"
              % (name, c, b, ratio, marker))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=5.0)
    args = parser.parse_args()

    current, baseline = load(args.current), load(args.baseline)
    failures = []
    print("bench_diff: %s vs %s (tolerance %.1fx)"
          % (args.current, args.baseline, args.tolerance))
    diff_google_benchmark(current, baseline, args.tolerance, failures)

    if failures:
        print("bench_diff: %d regression(s):" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("bench_diff: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
