#!/usr/bin/env python3
"""Builds the hivesim benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root (the
first run configures and compiles the simulator libraries, later runs only
check that nothing changed). The workload runs in its own single-threaded
process, which reads the metric names and units from BENCHMARK.json; its
last stdout line is the result object. The traced run
(--trace 1) also writes its span tree to
.bench_build/perfbench/traces/<workload>-seed<N>.json. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_grid", "fleet_churn", "fuzz_campaign")
# A run measures for --seconds (at most 60 here) plus set-up and, in the
# traced run, the counting pass; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
        stdout=sys.stderr, check=True)
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([str(build("perfbench_test"))]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        exe = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--data-dir", str(HERE / "data"),
               "--benchmark-json", str(ROOT / "BENCHMARK.json")]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / ("%s-seed%d.json" % (args.workload,
                                                      args.seed)))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
