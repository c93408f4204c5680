#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage (from the root of the checkout):

    python3 perfbench/spread.py --workload retail --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread
above a third of the bound is flagged. Every run must report correct=true.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"seed {seed}: incorrect result: {out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound / 3:
            flag = "  <-- above bound/3"
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"  {name:<40} {med:12.5g} {spread:8.4f} {bound_text}{flag}")


if __name__ == "__main__":
    main()
