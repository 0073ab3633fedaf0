#!/usr/bin/env python3
"""Run-to-run stability of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, its median and its spread (interquartile range over
the median, statistics.quantiles(n=4)) next to the metric's bound:

    python3 perfbench/stability.py --seeds 10 --seconds 55 \
        [--workload payg_refresh ...]

A metric is steady when its spread stays under a third of its bound;
setup_s is exempt from the spread rule but not from the median check.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workload", action="append",
                        choices=sorted({**summary.WORKLOADS,
                                        **summary.EXTRA_WORKLOADS}))
    args = parser.parse_args()
    steady = True
    for workload in args.workload or list(summary.WORKLOADS):
        values = {name: [] for name, *_ in summary.END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                steady = False
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(workload)
        for name, unit, _, bound, _ in summary.END_TO_END:
            v = values[name]
            if len(v) < 2:
                continue
            s = summary.spread(v)
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            print("  %-16s median %12.4f %-6s spread %.4f (bound %.2f)%s" % (
                name, statistics.median(v), unit, s, bound,
                "" if ok else "  UNSTEADY"))
            print("    " + " ".join("%.4g" % x for x in v))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
