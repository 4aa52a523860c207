#!/usr/bin/env python3
"""Build and run the whole-run benchmark of the supervised runtime.

Run from the repository root:

    python3 e2ebench/run.py --workload flue2d_lb --seed 1 --seconds 20 --trace 0

The first call configures and builds the program and the benchmark from
source into .bench_build/ (a few minutes); later calls only check that the
build is up to date.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  The exit code is the benchmark's:
non-zero when a build step, a run or a correctness check failed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: no program sources (src/CMakeLists.txt) "
                         "under %s; run from the repository root\n" % root)
        return None
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2ebench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return build_dir


def main():
    root = os.getcwd()
    build_dir = build(root)
    if build_dir is None:
        return 2
    return subprocess.run([os.path.join(build_dir, "e2ebench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
