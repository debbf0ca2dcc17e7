#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_ingest --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
appstore libraries and the benchmark into .bench_build/ (a few minutes);
later runs rebuild incrementally. Every run first executes the benchmark's
self-test, then the workload, whose last line of output is the JSON result.
Exits non-zero without a result when the build, the self-test or the
workload fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("crawl_study", "serve_ingest", "fed_scatter")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        fail(f"step failed ({result.returncode}): {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 600)
    jobs = str(max(1, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], 900)
    run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest")], 60)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout is not
    necessarily a git repository, so this stands in for a commit id)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", WORK_DIR,
        "--source-digest", source_digest(),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    output = result.stdout.decode()
    if result.returncode != 0:
        sys.stderr.write(output)
        fail(f"{args.workload} exited with {result.returncode}")
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
