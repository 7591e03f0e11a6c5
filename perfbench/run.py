#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the root of the repository:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --scan FROM-TO
  python3 perfbench/run.py --test

The first form prints the metrics of one run; its last line of stdout is
one JSON object. --scan runs each fault/churn seed of the range once and
lists those that fail. --test builds and runs the benchmark's own tests.

The build (RelWithDebInfo, perfbench/CMakeLists.txt, which pulls in the
repository's gcr library) goes to .bench_build/ under the repository root;
its output is appended to .bench_build/build.log.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found next to perfbench/; "
                     "run from a full checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.exit("perfbench: build failed (see .bench_build/build.log)")


def main(argv):
    if argv == ["--test"]:
        build(["perfbench_test"])
        return subprocess.call([os.path.join(BUILD, "perfbench_test")])
    build(["perfbench"])
    return subprocess.call([os.path.join(BUILD, "perfbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
