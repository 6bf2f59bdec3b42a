#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pipelined, open_mixed, durable_failover (see perfbench/README.md).
The first run configures and compiles the library under src/ together with
the benchmark program into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs
rebuild incrementally. Build output goes to stderr. The program's stdout is
passed through: one line per metric, then a final JSON result line. With
--trace 1 the traced spans are also written to
<build dir>/spans-<workload>-<seed>.csv.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("pipelined", "open_mixed", "durable_failover")


def build(root, build_dir):
    def step(cmd):
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", build_dir])
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "--parallel", "4"])
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src" % root)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
