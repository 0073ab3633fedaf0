#!/usr/bin/env python3
"""End-to-end wrangling benchmark.

Builds the VADA libraries and the benchmark binary (perfbench.cc) from source in
Release mode under .bench_build/, runs one workload and prints its metrics.
Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload payg_refresh --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer split with --trace 1. Earlier lines are a
human-readable log (per-kind latency percentiles, fingerprints of the
final results, tracing overhead).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "vada_perfbench"
WORK_DIR = BUILD_ROOT / "work"
# A run measures --seconds and then finishes its current epoch (at most a
# few seconds); past this slack it is killed.
RUN_SLACK_S = 120


def build():
    """Configures (once) and incrementally builds the binary. Build output
    goes to stderr so stdout stays the benchmark's own."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("VADA sources not found under %s" % ROOT)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace, timeout):
    """Runs the binary once and returns its raw JSON report."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--work-dir", str(WORK_DIR)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark binary exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({**summary.WORKLOADS,
                                        **summary.EXTRA_WORKLOADS}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    try:
        build()
        raw = run_binary(args.workload, args.seed, args.seconds, args.trace,
                         args.seconds + RUN_SLACK_S)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for line in summary.describe(raw):
        print(line)
    found = summary.problems(raw)
    for p in found:
        print("PROBLEM: %s" % p)
    if args.trace:
        metrics = summary.with_units(summary.per_layer(raw),
                                     summary.layer_table(args.workload))
    else:
        metrics = summary.with_units(summary.end_to_end(raw),
                                     summary.END_TO_END)
    print(json.dumps({"correct": not found, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    # A failed correctness or reconciliation check fails the run loudly.
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
