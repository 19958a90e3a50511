#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the perfbench binary are
built from source into .bench_build/perfbench (configured on first use,
incrementally rebuilt after). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans are also written to .bench_build/perfbench/traces/<workload>.json.
Build output goes to standard error.

--corrupt-reference corrupts the output check's reference; the run must
then report "correct": false (perfbench/selftest.py uses it).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("eager_train", "eager_async_train", "staged_loop_train",
             "serve_mlp")
# Beyond the measured window, a run sets up, checks its outputs and exits
# within this many seconds.
RUN_OVERHEAD_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a checkout root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source path (a moved
        # checkout) cannot be reused.
        with open(cache) as f:
            home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n"
            stale = home not in f.readlines()
        if stale:
            shutil.rmtree(BUILD_DIR)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    # Measure the library's defaults: no TFE_* knob from the caller's
    # environment reaches the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TFE_")}
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        result = subprocess.run(command, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %g s" % timeout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
