#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs each workload --runs times per set, for --sets sets, with seeds 1, 2,
3, ... and the run_seconds of BENCHMARK.json, and prints per metric: each
set's median, the spread of the set (distance between the first and third
quartile as a share of the median) and the gap between the first two sets'
medians (as a share of the first). Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --workloads scan-paged --runs 5 --sets 1
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = ["bash", "perfbench/run.sh"]


def run_once(workload, seed, seconds):
    cmd = BENCH + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for wl in args.workloads:
        sets = []
        seed = 1
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(wl, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        print(f"\n{wl} ({args.sets} sets x {args.runs} runs)")
        print(f"| metric | bound | " +
              " | ".join(f"set {i + 1} median | spread" for i in range(args.sets)) +
              " | gap |")
        print("|---|---|" + "---|---|" * args.sets + "---|")
        for name in sorted(sets[0][0]):
            cells, meds = [], []
            for runs in sets:
                vals = [r[name] for r in runs]
                med = statistics.median(vals)
                meds.append(med)
                cells.append(f"{med:.4g} | {spread(vals):.3f}")
            gap = (meds[1] - meds[0]) / meds[0] if len(meds) > 1 and meds[0] else float("nan")
            print(f"| {name} | {bounds.get(name, '-')} | " + " | ".join(cells) + f" | {gap:+.3f} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
