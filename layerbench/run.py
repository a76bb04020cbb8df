#!/usr/bin/env python3
"""Builds the layer-ladder benchmark from source and runs one workload.

    python3 layerbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/layerbench
(default .bench_build/layerbench); build output goes to stderr, so the last
stdout line is the benchmark's result object. Traced runs also write their
spans to <build dir>/spans/<workload>.jsonl. The metric names printed are
checked against BENCHMARK.json before the result is passed on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "layerbench")


def build(bdir):
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache left by another source tree or generator: start over.
        shutil.rmtree(bdir, ignore_errors=True)
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "layer_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"[layerbench] build failed: {e}", file=sys.stderr)
        return 2

    command = [os.path.join(bdir, "layer_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(bdir, "work")]
    os.makedirs(os.path.join(bdir, "work"), exist_ok=True)
    if args.trace == "1":
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        command += ["--spans-out",
                    os.path.join(bdir, "spans", args.workload + ".jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("[layerbench] run timed out", file=sys.stderr)
        return 2

    lines = proc.stdout.strip().splitlines()
    want = expected_metrics(args.trace == "1")
    if lines and want is not None and proc.returncode == 0:
        got = set(json.loads(lines[-1])["metrics"])
        if got != want:
            sys.stderr.write(proc.stdout)
            print(f"[layerbench] metrics differ from BENCHMARK.json: "
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}",
                  file=sys.stderr)
            return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
