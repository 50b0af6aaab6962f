#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of one build agree.

Run from the repository root:

    python3 perfbench/steadiness.py

For each starting seed (1 and 1001) and each of two sets, every workload in
BENCHMARK.json runs ten times with seeds start, start+1, ... (the untraced
command, run_seconds each). For every workload x end-to-end metric it prints
each set's median, its IQR (the distance between the first and third
quartile of the runs), its spread (the IQR as a share of the median) and the
drift (the distance between the two sets' medians as a share of the first).
A metric passes when both spreads and the drift are within the bound
BENCHMARK.json gives it. The exit code is 1 if any metric fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 1001)
SETS = 2
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steadiness: {workload} seed {seed} failed its check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2, q3 - q1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    ok = True
    for start in SEEDS:
        print(f"== starting seed {start}: {SETS} sets of {RUNS} runs x "
              f"{spec['run_seconds']} s")
        print(f"{'workload':9} {'metric':14} {'bound':>6} "
              + "".join(f"{'median' + str(s + 1):>13} {'iqr' + str(s + 1):>11}"
                        f" {'spread' + str(s + 1):>8}" for s in range(SETS))
              + f" {'drift':>7}  verdict")
        for workload in (w["name"] for w in spec["workloads"]):
            sets = []
            for _ in range(SETS):
                runs = [run_once(spec, workload, start + i)
                        for i in range(RUNS)]
                sets.append({m["name"]: spread([r[m["name"]] for r in runs])
                             for m in metrics})
            for m in metrics:
                name, bound = m["name"], m["bound"]
                cells, verdict = "", "ok"
                for s in sets:
                    sp, med, iqr = s[name]
                    cells += f" {med:13.6g} {iqr:11.4g} {sp:8.4f}"
                    if sp > bound:
                        verdict = "SPREAD"
                    elif sp > bound / 3 and verdict == "ok":
                        verdict = "ok (spread > bound/3)"
                m1, m2 = sets[0][name][1], sets[1][name][1]
                drift = abs(m2 - m1) / m1
                if drift > bound:
                    verdict = "DRIFT"
                if verdict in ("SPREAD", "DRIFT"):
                    ok = False
                print(f"{workload:9} {name:14} {bound:6.3f}{cells} "
                      f"{drift:7.4f}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
