#!/usr/bin/env python3
"""Check that the benchmark is steady: run workloads with several seeds and
report, per end-to-end metric, the spread between the first and third
quartile of the runs as a share of their median, against the metric's bound
in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Run from the repository root.  Each run is a fresh `perfbench/run.py`
process with seed 1, 2, ...  Exits 1 when a run fails or a spread (other
than setup_s's) exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                ["python3", os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (name, seed, done.returncode))
                steady = False
                continue
            result = json.loads(lines[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.6g" % (m, values[m][-1]) for m in bounds)), flush=True)
        for m, bound in bounds.items():
            v = values[m]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bound / 3
            steady = steady and ok
            print("  %-14s %-12s median %-12.6g spread %6.3f  bound %.2f %s"
                  % (name, m, med, spread, bound, "" if ok else "UNSTEADY"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
