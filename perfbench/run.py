#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload adhoc|serve_churn|batch_mixed \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the gpm
library sources plus the benchmark program) in Release mode under
.bench_build/; later calls only rebuild what changed. The program's output is
passed through: its last line is the JSON result. Build logs go to stderr.
The exit code is the program's, or 1 when the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "gpm_perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "perfbench-trace")
BUILD_JOBS = "2"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark program; True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"build failed: {error}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"build failed: {' '.join(step)}", file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["adhoc", "serve_churn", "batch_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    sys.stdout.flush()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", TRACE_DIR]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
