#!/usr/bin/env python3
"""Steadiness mode: runs one workload N times, each with another seed,
and prints each metric's median, quartiles, (q3-q1)/median and
(max-min)/median, marking the metrics that repeat within a tenth.

    python3 perfbench/steady.py --workload serve-uniform --runs 10 --seconds 10 [--trace 0] [--first-seed 1]

Run from the repository root. Bounds in BENCHMARK.json are set from
this output: each end-to-end metric's (q3-q1)/median should stay below
a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else float("nan")
        spread = (max(vals) - min(vals)) / med if med else float("nan")
        mark = "" if spread <= 0.1 else "  > a tenth"
        print(f"{name:<28} {units[name]:<6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{iqr:8.3f} {spread:9.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
