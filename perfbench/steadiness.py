#!/usr/bin/env python3
"""Checks that the benchmark repeats: two sets of runs of every workload.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Each of the two sets runs every workload once per seed, seeds 1 .. runs,
one run at a time, through run.py with --trace 0 and the run length of
BENCHMARK.json. For each end-to-end metric it prints, per set, the median
and quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median, and the bound from BENCHMARK.json; then the shift of the second
set's median against the first. Flagged, and failing, are: a quartile
spread above its bound, a median shift worse than its bound, and a failed
share that differs between the sets. A spread above a third of its bound is
noted as a thin margin but does not fail. setup_s is one cold set-up per
run, so its spread is printed but not judged: only its median shift is
held to its bound.
The raw result lines are written to perfbench-out/steadiness.jsonl.
Exits 1 when anything is flagged or any run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    os.makedirs(os.path.join(ROOT, "perfbench-out"), exist_ok=True)
    log = open(os.path.join(ROOT, "perfbench-out", "steadiness.jsonl"), "a")
    flagged = False
    for workload in args.workloads.split(","):
        sets = []
        failed_share = []
        for s in range(SETS):
            results = []
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                result = run_once(workload, seed, bench["run_seconds"])
                log.write(json.dumps({"workload": workload, "set": s,
                                      "seed": seed, "result": result}) + "\n")
                log.flush()
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed or incorrect")
                    flagged = True
                    continue
                results.append(result)
            sets.append(results)
            failed_share.append(
                sum(r["failed"] for r in results) /
                max(1, sum(r["attempted"] for r in results)))
        print(f"\n{workload}: failed share per set {failed_share}")
        if len(set(failed_share)) > 1:
            flagged = True
        print(f"  {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  note")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                note = ""
                if name == "setup_s":
                    note = "(spread not judged)"
                elif spread > bound:
                    note = "SPREAD > bound"
                    flagged = True
                elif spread > bound / 3:
                    note = "thin margin: spread > bound/3"
                print(f"  {name:<14} {s:>3} {q1:>12.5g} {med:>12.5g} "
                      f"{q3:>12.5g} {spread:>8.3f} {bound:>6}  {note}")
            if len(medians) == SETS:
                first, last = medians
                worse = ((last - first) / first if metric["better"] == "lower"
                         else (first - last) / first) if first else 0.0
                note = "SHIFT > bound" if worse > bound else ""
                flagged |= bool(note)
                print(f"  {name:<14} shift of second median: {worse:+.3f}  "
                      f"{note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
