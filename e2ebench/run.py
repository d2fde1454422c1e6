#!/usr/bin/env python3
"""Builds the e2ebench binary from source and runs one workload.

    python3 e2ebench/run.py --workload cold-paper --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The build tree is .bench_build/e2ebench under the repository root. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero when the build fails, when a correctness
check fails, or when the run does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
