#!/usr/bin/env python3
"""End-to-end benchmark of the certain-fix engines.

Builds the perfbench binary from this checkout (perfbench/CMakeLists.txt,
into .bench_build/), runs one workload in its own process, and prints the
result as the last line of standard output:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--stream-rate R]

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. The full report of every run, with the
sizes of the generated inputs, is also written to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

  python3 perfbench/run.py --all [--seed N] [--seconds S] [--stream-rate R]

runs every workload untraced and prints each end-to-end metric under the
name it has in perfbench/README.md, with its unit; it exits non-zero if
any output differed from its oracle.

  python3 perfbench/run.py --self-test

builds and runs the unit test of the benchmark's statistics code.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("batch-miss", "stream-hit", "durable-churn")

# BENCHMARK.json names each end-to-end metric once for all workloads; this
# is the workload's own metric behind each of those names.
END_TO_END = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
    "throughput_per_s": {
        "batch-miss": "batch_rows_per_s",
        "stream-hit": "stream_rows_per_s",
        "durable-churn": "session_deltas_per_s",
    },
    "latency_p50_us": {
        "batch-miss": "job_latency_p50_us",
        "stream-hit": "entry_latency_p50_us",
        "durable-churn": "ack_latency_p50_us",
    },
}


def latency(prefix):
    """A timing's median, p99, highest supported tail and sample count."""
    return [prefix + s for s in ("_p50_us", "_p99_us", "_tail_permille",
                                 "_tail_us", "_samples")]


# What --all prints per workload: the end-to-end metrics that apply to it
# (failed_frac is computed from attempted/failed).
REPORTED = {
    "batch-miss": ["setup_s", "batch_rows_per_s"] + latency("job_latency")
    + ["peak_rss_mb"],
    "stream-hit": ["setup_s", "stream_rows_per_s"] + latency("entry_latency")
    + ["workload.open_loop_late_p99_us", "peak_rss_mb"],
    "durable-churn": ["setup_s", "session_deltas_per_s"]
    + latency("ack_latency")
    + ["recover_s", "bytes_per_user_byte", "peak_rss_mb"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; exits 2 when the build fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD, target)


def run_workload(binary, workload, seed, seconds, trace, stream_rate):
    """Runs one workload in its own process; returns (report, exit code)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", WORK,
           "--stream-rate", str(stream_rate)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          universal_newlines=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed no report (exit %d)"
            % (workload, done.returncode))
        sys.exit(2)
    report = json.loads(lines[-1])
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    m = report["metrics"]
    log("perfbench: %s seed %d: master %d rows / %d bytes, input %d rows / "
        "%d bytes, delta log %d rows / %d bytes; report in %s"
        % (workload, seed, m["workload.master_rows"]["value"],
           m["workload.master_bytes"]["value"],
           m["workload.input_rows"]["value"],
           m["workload.input_bytes"]["value"],
           m["workload.delta_rows"]["value"],
           m["workload.delta_bytes"]["value"], path))
    for error in report["errors"]:
        log("perfbench: %s: %s" % (workload, error))
    return report, done.returncode


def contract_result(report, workload, trace, spec):
    """The result line: this run's metrics named in BENCHMARK.json.

    A per-layer metric of a layer the workload does not use reads 0; a
    missing end-to-end metric is an error."""
    metrics = {}
    have = report["metrics"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        source = name if trace else END_TO_END[name][workload]
        if source in have:
            value = have[source]["value"]
        elif trace:
            value = 0  # a layer this workload does not use
        else:
            log("perfbench: %s reported no %s" % (workload, source))
            sys.exit(2)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(binary, args):
    ok = True
    print("%-14s %-32s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        report, code = run_workload(binary, workload, args.seed, args.seconds,
                                    0, args.stream_rate)
        ok = ok and code == 0 and report["correct"]
        m = report["metrics"]
        for name in REPORTED[workload]:
            print("%-14s %-32s %16.6g  %s"
                  % (workload, name, m[name]["value"], m[name]["unit"]))
        frac = report["failed"] / max(1, report["attempted"])
        print("%-14s %-32s %16.6g  %s" % (workload, "failed_frac", frac,
                                          "ratio"))
        print("%-14s %-32s %16s" % (workload, "oracle",
                                    "match" if report["correct"] else
                                    "MISMATCH"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream-rate", type=int, default=0,
                        help="stream-hit open-loop rate, tuples per second")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        test = build("perfbench_stats_test")
        return subprocess.run([test]).returncode
    if args.stream_rate <= 0:
        parser.error("--stream-rate is required (BENCHMARK.json gives it)")
    binary = build("perfbench")
    if args.all:
        return run_all(binary, args)
    if args.workload is None:
        parser.error("--workload, --all or --self-test is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    report, code = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace, args.stream_rate)
    print(json.dumps(contract_result(report, args.workload, args.trace, spec)))
    return code


if __name__ == "__main__":
    sys.exit(main())
