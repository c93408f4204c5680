#!/usr/bin/env python3
"""Build the P2DRM benchmark from this checkout's sources and run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload retail --seed 1 --seconds 20 --trace 0

The library sources under src/ and p2drm_bench.cpp are built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); reports
and traces go to .bench_build/out. This process then becomes p2drm_bench,
whose last stdout line is the JSON result. Exits non-zero without
printing a result when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures (once) and builds p2drm_bench; returns its path and the
    report directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        sys.exit("perfbench: no p2drm sources under src/; nothing to build")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "p2drm_bench"), os.path.join(target, "out")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["retail", "transfer_batch", "transfer_single"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny keys, content and step counts (smoke test)")
    args = parser.parse_args()

    try:
        binary, out_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    # Become the benchmark binary, so no child process outlives a stopped run.
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
