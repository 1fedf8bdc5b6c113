#!/usr/bin/env python3
"""Builds the node benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <sync-mem|sync-cold|head-rpc> \
        --seed <n> --seconds <s> --trace <0|1> [--users <n>]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/, configured once and rebuilt incrementally; its output goes to
stderr. The benchmark binary's standard output is passed through, so the last
line is the result JSON. Exits non-zero if the build or the run fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "node_bench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            return None
    return os.path.join(build_dir, "node_bench")


def main(argv):
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(target, "perfbench-work")
    proc = subprocess.Popen([binary, "--work-dir", work_dir] + argv)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
