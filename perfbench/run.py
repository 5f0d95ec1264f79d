#!/usr/bin/env python3
"""End-to-end SID benchmark: builds sid_perfbench from source, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload harbor --seed 1 --seconds 20 --trace 0

Workloads: harbor, contested_harbor, trace_replay, fleet_plane (see
perfbench/README.md). The build goes to .bench_build/perfbench (Release);
build output goes to stderr so the last line of stdout is the benchmark's
JSON result. Exits non-zero without a result when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("harbor", "contested_harbor", "trace_replay", "fleet_plane")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    # Per-invocation working directory for generated traces; the traced
    # pass's span log is kept next to the build as spans-<workload>.jsonl.
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return subprocess.run(
            [
                os.path.join(build_dir, "sid_perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
                "--spans-out",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload),
            ]
        ).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
