#!/usr/bin/env python3
"""Builds the gkeys benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds a Release build of the library and
the gkeys_perfbench binary under .bench_build/perfbench (later calls
rebuild only what changed). The binary's standard output is passed through
unchanged; its last line is the JSON result. Build output goes to standard
error. With --trace 1 the Chrome trace-event file lands in
.bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "gkeys_perfbench")
RUN_TIMEOUT_S = 170


def configured_for_this_tree():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(HERE)
    return False


def build():
    if not configured_for_this_tree():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "gkeys_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = os.path.join(BUILD, "work", tag)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", work_dir,
           "--trace-out",
           os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
