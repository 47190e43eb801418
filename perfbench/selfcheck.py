#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks, each in fresh runner processes:

  * determinism: rel.images, bdd.cache_lookups and eq.subset_states read
    the same in two traced runs of every workload, and in batch_gen with 1
    and with 2 workers;
  * the known-answer gate: a run against a deliberately wrong known answer
    exits non-zero and reports correct=false.

Exits 1 when any check fails.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and command line)

COUNTERS = ("rel.images", "bdd.cache_lookups", "eq.subset_states")


def traced(runner, workload, extra=()):
    done = subprocess.run(
        run.runner_command(runner, workload, 7, 1, 1, extra),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("%s %s: exit %d" % (workload, " ".join(extra),
                                               done.returncode))
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {c: metrics[c]["value"] for c in COUNTERS}


def main():
    runner = run.build()
    failures = []
    for workload in run.WORKLOADS:
        first, second = traced(runner, workload), traced(runner, workload)
        print("%-14s %s" % (workload, first))
        if first != second:
            failures.append("%s: counters drift between runs: %s vs %s"
                            % (workload, first, second))
    one = traced(runner, "batch_gen", ("--batch-workers", "1"))
    two = traced(runner, "batch_gen", ("--batch-workers", "2"))
    if one != two:
        failures.append("batch_gen: 1 worker %s vs 2 workers %s" % (one, two))

    # the gate: a wrong mix26 depth must fail the run
    answers = os.path.join(run.HERE, "known_answers.txt")
    with open(answers) as f:
        text = f.read()
    wrong = text.replace("reach_mix26 mix26 depth=91",
                         "reach_mix26 mix26 depth=90")
    if wrong == text:
        failures.append("known answers: reach_mix26 depth line not found")
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     dir=run.build_dir()) as bad:
        bad.write(wrong)
        bad.flush()
        cmd = run.runner_command(runner, "table1_corpus", 1, 1, 0)
        cmd[cmd.index("--answers") + 1] = bad.name
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or not lines or json.loads(lines[-1])["correct"]:
        failures.append("a wrong known answer did not fail the run")

    for f in failures:
        print("FAIL " + f)
    print("selfcheck: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
