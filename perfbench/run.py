#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload fit-susy --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The first call configures and builds the
khss library and the perfbench binary in .bench_build/perfbench (Release);
later calls rebuild only what changed.  Every argument is passed to the
binary, whose last line of standard output is the result object.  A failed
build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the binary's path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            if len(steps) == 2 and cmd is steps[0]:
                # A failed first configure must not leave a cache behind that
                # would make the next call skip configuring.
                shutil.rmtree(BUILD, ignore_errors=True)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    if binary is None or not os.path.exists(binary):
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
