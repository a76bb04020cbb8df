#!/usr/bin/env python3
"""Run-to-run spread of the layer-ladder benchmark's end-to-end metrics.

    python3 layerbench/stability.py [--workloads a,b] [--seeds 1-10]
                                    [--seed S --runs N] [--sets 2]
                                    [--seconds T] [--json-out FILE]

Runs each workload once per seed (or N times at one seed), `--sets` times
over, through run.py. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and IQR/median of each set next to the
metric's bound from BENCHMARK.json, and flags a spread above the bound
("OVER") or above a third of it ("high"). With two or more sets it also
prints how far each later set's median moved against the first, in the
direction that counts as worse. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json-out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = ([args.seed] * args.runs if args.seed is not None
             else parse_seeds(args.seeds))

    raw = {}
    for workload in workloads:
        sets = [[run_once(workload, s, seconds) for s in seeds]
                for _ in range(args.sets)]
        raw[workload] = sets
        print(f"\n{workload}: {len(seeds)} runs x {args.sets} set(s), "
              f"{seconds:g} s each")
        print(f"  {'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}  flag")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for i, runs in enumerate(sets):
                med, q1, q3, rel = spread([r[name] for r in runs])
                flag = ("OVER" if rel > bound else
                        "high" if rel > bound / 3 else "")
                if first is None:
                    first = med
                else:
                    worse = (med - first if m["better"] == "lower"
                             else first - med) / first
                    flag += f" moved {worse:+.3f}" + (
                        " OVER" if worse > bound else "")
                print(f"  {name:14s} {i + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {rel:8.4f} {bound:6.3f}  {flag}")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "runs": raw}, f,
                      indent=1)


if __name__ == "__main__":
    main()
