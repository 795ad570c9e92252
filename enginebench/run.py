#!/usr/bin/env python3
"""Build the engine benchmark from this checkout's sources and run one workload.

    python3 enginebench/run.py --workload kron_read --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/enginebench
(its output is sent to standard error). The benchmark's standard output is
passed through unchanged: its last line is the result JSON. A traced run
(--trace 1) also writes its spans, as Chrome-trace JSON, to
.bench_build/enginebench/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "enginebench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "enginebench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"enginebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "enginebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.json")]
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
