#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sort|trie|trie-tardis --seed N \
        --seconds S --trace 0|1

Configures and builds the benchmark package in this directory (which compiles
the simulator from ../src with optimised flags) under .bench_build/, then runs
the `perfbench` binary, which refuses to measure an unoptimised or sanitizer
build. The binary's last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; this script prints it only when the
run completed and the line is well formed, and exits non-zero otherwise.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
# Seconds the binary may take after the build check; with the check, a run
# stays within three minutes.
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout_s, what):
    """Runs `cmd` in its own process group with output on stderr; kills the
    whole group if it outlives `timeout_s`."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} timed out")
    if code != 0:
        fail(f"{what} failed (exit {code})")


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are missing; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                    deadline - time.monotonic(), "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], deadline - time.monotonic(),
                "build")
    return os.path.join(BUILD_DIR, "perfbench")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and len(result["metrics"]) > 0)


def main():
    args = parse_args()
    # The first run in a fresh checkout builds, which may take longer.
    binary = build(time.monotonic() + 900)
    deadline = time.monotonic() + DEADLINE_S
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(BUILD_DIR, f"spans-{args.workload}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark run timed out")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(out)
        fail("benchmark printed no well-formed result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
