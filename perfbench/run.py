#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

The driver is configured and built under .bench_build/perfbench on first use
(an optimized build of src/ plus perfbench.cpp); later runs only check that
the build is up to date. The arguments go to the driver unchanged, and it
checks them. Build output goes to standard error. The last line of standard
output is the driver's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no AutoSynch sources at src/; "
                 "run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
