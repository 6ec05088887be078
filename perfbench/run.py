#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the serving stack.

One workload (the form BENCHMARK.json's command uses):

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

prints '#' lines with every metric, its unit and its sample count, then one
JSON line with the gated metrics (end-to-end with --trace 0, per-layer with
--trace 1). Every workload, untraced and traced, from one seed:

    python3 perfbench/run.py --all --seed 1 [--seconds 20]

prints one table of every metric and exits non-zero if any answer was wrong.

The benchmark program (perfbench/*.cc) and the library sources under src/
are compiled into .bench_build/perfbench at the repository root on first use.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("explore", "dashboard", "cold_sharded")


def build():
    """Configures and builds the program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, f"{workload}-seed{seed}.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def run_all(seed, seconds):
    """Every workload, untraced then traced, as one table."""
    ok = True
    print(f"{'run':<20} {'metric':<38} {'value':>14} {'unit':<8} n")
    for workload in WORKLOADS:
        for trace in (False, True):
            label = workload + (" traced" if trace else "")
            code, out = run(workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            ok = ok and code == 0 and result["correct"]
            for line in lines[:-1]:
                fields = line[2:].split()
                if len(fields) == 4 and fields[3].startswith("(n="):
                    name, value, unit, n = fields
                    print(f"{label:<20} {name:<38} {float(value):>14.6g} "
                          f"{unit:<8} {n[3:-1]}")
                else:
                    print(f"{label:<20} {line[2:]}")
            print(f"{label:<20} {'correct':<38} {str(result['correct']):>14}"
                  f" {'':<8} attempted {result.get('attempted')}, failed "
                  f"{result.get('failed')}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.all:
        return run_all(args.seed, args.seconds)
    code, out = run(args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
