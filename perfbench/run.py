#!/usr/bin/env python3
"""Build the FLIPC benchmark from source and run one workload.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is built with dune (release
profile, shared cache off, so nothing is written outside the checkout)
and then run with the same arguments; each workload runs in a fresh
process. The last line of standard output is the program's JSON result
(with --workload all, one object mapping each workload to its result).
With --trace 1 the traced round's spans are written under perfbench/out/.
The exit code is non-zero when the build fails, a check fails, or a run
overruns its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["pingpong", "firehose_ladder", "stack_lossy"]
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "flipc_bench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
RUN_LIMIT_S = 170


def build():
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--cache", "disabled", "--display", "quiet",
           "./perfbench/flipc_bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_one(args, workload):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans",
                os.path.join(OUT, f"{workload}-seed{args.seed}.spans.tsv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: over {RUN_LIMIT_S} s, stopped", file=sys.stderr)
        return 1, None
    lines = done.stdout.splitlines()
    return done.returncode, lines


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, lines = run_one(args, args.workload)
        if lines is not None:
            print("\n".join(lines), flush=True)
        return code
    results, worst = {}, 0
    for w in WORKLOADS:
        code, lines = run_one(args, w)
        worst = worst or code
        if not lines:
            return worst or 1
        print("\n".join(lines[:-1]), flush=True)
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
