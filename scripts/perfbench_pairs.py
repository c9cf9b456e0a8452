#!/usr/bin/env python3
"""Compare two checkouts on the FLIPC benchmark with alternating pairs.

    scripts/perfbench_pairs.py [--pairs 10] [--seconds S] [--seeds 1,2,3]
        PARENT_DIR CHANGE_DIR

For each workload CHANGE_DIR/BENCHMARK.json declares, runs N pairs of
one parent run and one change run, each a call of the checkout's own
perfbench/run.py with --trace 0 (which builds the benchmark there
first). Runs last --seconds, by default the benchmark's run_seconds. The
side that runs first alternates from pair to pair and the seed rotates
over --seeds, the same seed for both runs of a pair.

Every run must exit 0, and both runs of a pair must report the same
virtual metrics (vt_*): the script fails as soon as they differ. It
prints each pair's host metrics as the pair completes. Then, for each
end-to-end metric that CHANGE_DIR/BENCHMARK.json declares, it prints
both sides' median and quartiles, the change's wins (pairs where it
reads better; ties count for neither side), the ratio of the medians,
and two verdicts:

  gain       the change won at least nine tenths of the pairs and its
             median beats the parent's by more than the parent's
             interquartile range;
  regressed  the change's median is worse than the parent's by more than
             the metric's bound.

Virtual metrics are deterministic, so they print once. The exit code is
0 when every run passed and every pair's virtual metrics agree; the
verdicts are reported, not enforced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench_pairs: {root}: {workload} seed {seed} "
                 f"exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(name, better, bound, parent, change):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    n = len(parent)
    gain = wins >= 0.9 * n and sign * (cmed - pmed) > pq3 - pq1
    regressed = sign * (pmed - cmed) > bound * abs(pmed)
    ratio = cmed / pmed if pmed else float("nan")
    verdict = "gain" if gain else ("regressed" if regressed else "-")
    print(f"  {name:<22} parent {pmed:>10.6g} [{pq1:.6g}, {pq3:.6g}]"
          f"  change {cmed:>10.6g} [{cq1:.6g}, {cq3:.6g}]"
          f"  x{ratio:.3f}  wins {wins}/{n}  {verdict}")


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent", metavar="PARENT_DIR")
    p.add_argument("change", metavar="CHANGE_DIR")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--seeds", default="1,2,3")
    args = p.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if args.pairs < 2:
        sys.exit("perfbench_pairs: --pairs must be at least 2")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = bench["end_to_end"]
    host = [m for m in metrics if not m["name"].startswith("vt_")]

    for w in workloads:
        print(f"{w}: {args.pairs} pairs of {seconds} s, seeds {args.seeds}")
        runs = {"parent": [], "change": []}
        vt = {}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                root = parent if side == "parent" else change
                got[side] = run(root, w, seed, seconds)
                runs[side].append(got[side])
            virtual = {side: {k: v for k, v in got[side].items()
                              if k.startswith("vt_")} for side in got}
            if virtual["parent"] != virtual["change"]:
                for k in sorted(virtual["parent"]):
                    a, b = virtual["parent"][k], virtual["change"].get(k)
                    if a != b:
                        print(f"{w} seed {seed}: {k}: parent {a!r}, "
                              f"change {b!r}", file=sys.stderr)
                sys.exit(f"perfbench_pairs: {w} pair {i + 1}: "
                         "virtual metrics differ")
            vt[seed] = virtual["change"]
            print(f"  pair {i + 1} seed {seed}, {order[0]} first: " +
                  ", ".join(f"{m['name']} {got['parent'][m['name']]:.6g} -> "
                            f"{got['change'][m['name']]:.6g}" for m in host))
        for seed in sorted(vt):
            print(f"  seed {seed} virtual, identical on both sides: " +
                  ", ".join(f"{k} {v:.6g}" for k, v in sorted(vt[seed].items())))
        for m in host:
            compare(m["name"], m["better"], m["bound"],
                    [r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
