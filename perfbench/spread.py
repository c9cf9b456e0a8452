#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload pingpong --runs 10 [--seconds 10]
        [--trace 0] [--first-seed 1]

For every metric: the median over the runs and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, beside the metric's bound from BENCHMARK.json when it has one.
A spread at or above a third of the bound is flagged. Each run is a
separate invocation of perfbench/run.py with its own seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1]
        res = json.loads(last)
        if out.returncode != 0 or not res["correct"]:
            print(f"seed {seed}: exit {out.returncode}, correct "
                  f"{res['correct']}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
            if k in bounds), file=sys.stderr)
    worst = 0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag = "  <-- spread >= bound/3"
            if name != "setup_s":
                worst = 1
        b = f"{bound:.3f}" if bound is not None else "  -  "
        print(f"{args.workload:16s} {name:40s} median {med:14.6g} "
              f"spread {spread:7.4f} bound {b}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
