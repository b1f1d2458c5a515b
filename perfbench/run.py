#!/usr/bin/env python3
"""Build the compile benchmark from source and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1_cli --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/dune (dune's shared cache is off, so nothing
is written outside the checkout). All arguments are passed to
perfbench/main.exe; its last line of standard output is the result object.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("perfbench: run from the root of a tqec checkout\n")
        return 2
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
