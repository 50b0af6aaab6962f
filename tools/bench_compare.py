#!/usr/bin/env python3
"""Compare fresh perfbench results against the committed trajectory.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0 \\
        | tail -1 > ring.jsonl            # repeat to collect several runs
    python3 tools/bench_compare.py --workload ring ring.jsonl

Each input line is one perfbench result (the last line of standard output
of perfbench/run.py); lines that are not JSON objects are skipped. The
median of the lines is compared, metric by metric, against the "change"
median of the latest row of BENCH_perfbench.json that has the workload,
for every end-to-end metric of BENCHMARK.json, using the metric's "better"
direction and "bound" (a relative tolerance). Prints one line per metric.

Exit status: 0 when no metric is worse than the baseline beyond its bound
and every run was correct; 1 otherwise; 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    runs = []
    streams = [open(p) for p in paths] if paths else [sys.stdin]
    for stream in streams:
        for line in stream:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return runs


def baseline_row(trajectory, workload):
    for row in reversed(trajectory["rows"]):
        if workload in row.get("workloads", {}):
            return row
    return None


def compare(fresh, base, better, bound):
    """Relative change of fresh over base, and whether it is within bound."""
    delta = (fresh - base) / base if base else 0.0
    worse = -delta if better == "higher" else delta
    return delta, worse <= bound


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="the workload the result lines ran")
    ap.add_argument("results", nargs="*",
                    help="files of result lines (default: standard input)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with open(os.path.join(ROOT, "BENCH_perfbench.json")) as f:
        row = baseline_row(json.load(f), args.workload)
    if row is None:
        print(f"bench_compare: no trajectory row has workload "
              f"'{args.workload}'", file=sys.stderr)
        return 2
    runs = load_runs(args.results)
    if not runs:
        print("bench_compare: no result lines", file=sys.stderr)
        return 2

    change = row["workloads"][args.workload]["change"]
    print(f"# {args.workload}: median of {len(runs)} run(s) vs the "
          f"'change' median of row {row.get('parent_commit')}")
    failed = False
    for m in metrics:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r.get("metrics", {})]
        base = (change.get(name) or {}).get("median")
        if not values or base is None:
            print(f"{name:14} skipped (no {'run value' if not values else 'baseline'})")
            continue
        fresh = statistics.median(values)
        delta, ok = compare(fresh, base, m["better"], m["bound"])
        failed |= not ok
        print(f"{name:14} {fresh:<12.4g} baseline {base:<12.4g} "
              f"{delta * 100:+7.1f}% ({m['better']} is better, bound "
              f"{m['bound'] * 100:.0f}%)  {'ok' if ok else 'WORSE'}")
    incorrect = sum(1 for r in runs if not r.get("correct", False))
    if incorrect:
        print(f"correct        {incorrect}/{len(runs)} run(s) reported "
              f"correct: false  WORSE")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
