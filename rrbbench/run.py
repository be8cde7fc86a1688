#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 rrbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program and the
library it links from source (CMake, Release, into .bench_build/), runs
a JSON self-test of the result writer, then runs the program and prints
its result line last on stdout, after checking that the line is strict
JSON with exactly the keys correct, attempted, failed and metrics.
Exits non-zero, printing no result, when the build, the self-test or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BASE = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_BASE, "rrbbench")
BINARY = os.path.join(BUILD_DIR, "rrbbench")
WORKLOADS = ("pwcet-stream", "estimate-grid", "batch-farm", "attribution-armed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rrbbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def reject_constant(token):
    raise ValueError("non-standard JSON constant " + token)


def strict_json(line):
    """Parses one JSON value, rejecting NaN and Infinity."""
    return json.loads(line, parse_constant=reject_constant)


def json_selftest():
    """The result writer must turn non-finite values into null."""
    proc = subprocess.run([BINARY, "--json-selftest"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return False
    try:
        result = strict_json(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as err:
        log("self-test output is not strict JSON: %s" % err)
        return False
    metrics = result["metrics"]
    return (set(result) == RESULT_KEYS
            and metrics["nan"]["value"] is None
            and metrics["inf"]["value"] is None
            and metrics["neg_inf"]["value"] is None
            and metrics["tiny"]["value"] == 5e-324
            and metrics["third"]["value"] == 1.0 / 3.0
            and metrics["quote\"name"]["value"] == 1.5)


def valid_result(line):
    try:
        result = strict_json(line)
    except ValueError as err:
        log("result is not strict JSON: %s" % err)
        return False
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("result keys are not %s" % sorted(RESULT_KEYS))
        return False
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        log("result has no operations or no metrics")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1
    if not json_selftest():
        log("JSON self-test failed")
        return 1
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", os.path.join(BUILD_BASE, "work")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        log("benchmark run failed (exit %d)" % proc.returncode)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
