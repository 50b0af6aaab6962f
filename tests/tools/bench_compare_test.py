#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py on synthetic perfbench lines.

For each workload of BENCHMARK.json, a result line built from the "change"
medians of the latest BENCH_perfbench.json row must compare clean (exit 0),
and the same line with ops_per_s halved must fail (exit 1).

    python3 tests/tools/bench_compare_test.py
"""

import copy
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")


def run(workload, line):
    p = subprocess.run([sys.executable, TOOL, "--workload", workload],
                       input=json.dumps(line) + "\n", text=True,
                       capture_output=True)
    return p.returncode, p.stdout + p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    with open(os.path.join(ROOT, "BENCH_perfbench.json")) as f:
        row = json.load(f)["rows"][-1]
    failures = 0
    for workload in workloads:
        sides = row["workloads"][workload]
        metrics = {name: {"value": m["median"]}
                   for name, m in sides["change"].items() if m}
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}
        halved = copy.deepcopy(line)
        halved["metrics"]["ops_per_s"]["value"] /= 2
        for what, data, want in (("own medians", line, 0),
                                 ("ops_per_s halved", halved, 1)):
            code, out = run(workload, data)
            verdict = "ok" if code == want else "FAIL"
            print(f"{workload} {what}: exit {code} (want {want}) {verdict}")
            if code != want:
                failures += 1
                print(out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
