#!/usr/bin/env python3
"""Live behaviour gate for the bench binaries at smoke size.

Runs one bench binary, passes its output through, and requires the
PLATINUM_BENCH_METRICS line it prints (bench/bench_util.h: RunMetrics) to carry
exactly the `machines`, `references` and `sim_ns` committed for it in
tests/golden/bench_smoke.json. Each bench_smoke_<name> ctest runs its binary
through this script, with the smoke-size environment of bench/CMakeLists.txt.

Usage:
  tools/bench_golden.py <golden.json> <name> <binary>   # gate; exit 1 on drift
  tools/bench_golden.py --print --build-dir build       # print current values

Regenerate the golden file with --print only for a change that is meant to
alter simulated behaviour, and say why in the commit.
"""

import argparse
import json
import os
import subprocess
import sys

from bench_report import BENCHES, METRICS_RE, SMALL_ENV

KEYS = ("machines", "references", "sim_ns")


def run_metrics(binary, env):
    """Runs `binary`; returns (stdout, metrics dict or None, exit code)."""
    proc = subprocess.run(
        [binary], env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    matches = METRICS_RE.findall(proc.stdout)
    metrics = json.loads(matches[-1]) if matches else None
    return proc.stdout, metrics, proc.returncode


def print_golden(build_dir):
    env = dict(os.environ)
    env.update(SMALL_ENV)
    lines = []
    for name in BENCHES:
        binary = os.path.join(build_dir, "bench", name)
        _, metrics, code = run_metrics(binary, env)
        if code != 0 or metrics is None:
            raise SystemExit(f"{name}: exit {code}, metrics line: {metrics is not None}")
        values = ", ".join(f'"{key}": {json.dumps(metrics[key])}' for key in KEYS)
        lines.append(f'  "{name}": {{{values}}}')
    print("{\n" + ",\n".join(lines) + "\n}")


def gate(golden_path, name, binary):
    with open(golden_path) as f:
        golden = json.load(f)
    if name not in golden:
        raise SystemExit(f"bench_golden: {name} has no entry in {golden_path}")
    stdout, metrics, code = run_metrics(binary, dict(os.environ))
    sys.stdout.write(stdout)
    if code != 0:
        raise SystemExit(f"bench_golden: {binary} exited with {code}")
    if metrics is None:
        raise SystemExit(f"bench_golden: {binary} printed no PLATINUM_BENCH_METRICS line")
    drift = [key for key in KEYS if metrics.get(key) != golden[name][key]]
    for key in drift:
        sys.stderr.write(
            f"bench_golden: {name} {key}: golden {golden[name][key]}, live {metrics.get(key)}\n"
        )
    if drift:
        raise SystemExit(f"bench_golden: {name} differs from {golden_path}")
    print(f"bench_golden: {name} matches {golden_path} exactly")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--print", action="store_true", help="print the current values")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("args", nargs="*", metavar="golden.json name binary")
    args = parser.parse_args()
    if args.print:
        print_golden(args.build_dir)
    elif len(args.args) == 3:
        gate(*args.args)
    else:
        parser.error("expected <golden.json> <name> <binary>, or --print")


if __name__ == "__main__":
    main()
