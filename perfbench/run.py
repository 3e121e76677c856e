#!/usr/bin/env python3
"""Build and run the wifisense wire-to-decision benchmark.

    python3 perfbench/run.py --workload serve_clean --seed 1 --seconds 10 --trace 0

Run from the root of a wifisense checkout. The first run configures and
builds the libraries and the perfbench binary (RelWithDebInfo) under
.bench_build/perfbench; later runs reuse that build. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
Workloads: serve_clean, serve_faulty, train (see perfbench/main.cpp).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_clean", "serve_faulty", "train")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    binary = build()
    sys.stdout.flush()
    done = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
