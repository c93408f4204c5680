#!/usr/bin/env python3
"""Smoke test of the P2DRM benchmark: every workload at a tiny size.

Usage (from the root of the checkout):

    python3 perfbench/smoke.py

Runs each workload with --smoke (512-bit keys, 4 KiB titles, a fixed
handful of steps) untraced and traced, and checks that every run is
correct with no failed op, that it prints exactly the metrics BENCHMARK.json
names for its mode, and that on transfer_single every planted double
redemption was opened to the cheating card. Exits non-zero on the first
problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": [m["name"] for m in bench["end_to_end"]],
        "1": [m["name"] for m in bench["per_layer"]],
    }
    out_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "out")
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: incorrect: {proc.stdout}")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            if list(result["metrics"]) != expected[trace]:
                missing = set(expected[trace]) - set(result["metrics"])
                extra = set(result["metrics"]) - set(expected[trace])
                problems.append(f"{label}: metric names differ from "
                                f"BENCHMARK.json (missing {sorted(missing)}, "
                                f"extra {sorted(extra)})")
            report_path = os.path.join(
                out_dir, f"report_{workload}_seed7_trace{trace}.json")
            with open(report_path) as f:
                named = json.load(f)["named"]
            planted = named["cheats_planted"]["value"]
            opened = named["cheats_opened_to_cheater"]["value"]
            if workload == "transfer_single" and (planted < 1 or planted != opened):
                problems.append(f"{label}: {planted} cheats planted, "
                                f"{opened} opened to the cheater")
            print(f"{label}: ok ({result['attempted']} checked ops)", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
