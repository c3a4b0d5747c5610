#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload landsat_file --seed 1 --seconds 10 --trace 0

Every argument is passed through to the driver (see src/main.cc), including
--smoke (small inputs) and --self-test (planted-fault checks). The driver
links the pmjoin library built with the repository's default configuration;
the build tree is $CARGO_TARGET_DIR, or .bench_build when that is unset.
Build output goes to stderr, so the last line of stdout is the driver's JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir], stdout=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    # One compile job per CPU this process may run on (nproc, not the host).
    compile_ = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(len(os.sched_getaffinity(0)))],
        stdout=sys.stderr)
    return compile_.returncode


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if build(build_dir) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = os.path.join(build_dir, "perfbench")
    return subprocess.run([driver] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
