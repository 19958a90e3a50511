#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout. On a tiny run length, every workload in
BENCHMARK.json must run untraced and traced, print exactly its end-to-end
or per-layer metrics with their declared units, and pass its output check.
A run with a corrupted reference must report a failure, and a directory
holding only the benchmark (no library sources) must exit non-zero without
printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SECONDS = "0.5"
SEED = "7"


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
               "--trace", trace, *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(result, specs, positive):
    """Returns a list of problems with one run's result line."""
    if result is None:
        return ["no JSON result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output check failed: %s/%s" %
                        (result.get("failed"), result.get("attempted")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append("%s unit %r, expected %r" %
                            (name, metric.get("unit"), unit))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        elif positive and value <= 0:
            problems.append("%s is %r; end-to-end metrics are never 0" %
                            (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0

    def report(case, problems):
        nonlocal failures
        print("%-4s %s%s" % ("ok" if not problems else "FAIL", case,
                             "" if not problems else ": " + "; ".join(problems)))
        sys.stdout.flush()
        failures += bool(problems)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, specs, positive in (("0", spec["end_to_end"], True),
                                       ("1", spec["per_layer"], False)):
            proc = run(workload, trace)
            report("%s --trace %s" % (workload, trace),
                   check_result(result_of(proc), specs, positive))
        corrupted = result_of(run(workload, "0", "--corrupt-reference"))
        caught = (corrupted is not None and corrupted["correct"] is False and
                  corrupted["failed"] >= 1)
        report("%s corrupted reference is caught" % workload,
               [] if caught else ["corrupted reference passed: %r" % corrupted])

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(spec["workloads"][0]["name"], "0", cwd=bare)
    report("benchmark alone exits non-zero without a result",
           [] if proc.returncode != 0 and '"correct"' not in proc.stdout
           else ["exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])])
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
