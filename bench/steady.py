"""Steadiness of the end-to-end metrics: repeated runs, one seed each.

    python3 bench/steady.py [--workloads nodes,commands,weight]
                            [--runs 10] [--sets 1] [--seconds S]

For each workload, runs bench/run.py --trace 0 once per seed and prints,
for every end-to-end metric, the median of the runs, the distance
between the first and third quartile as a share of the median (the
spread), and the metric's bound from BENCHMARK.json.  A spread under a
third of the bound is marked steady.  With --sets 2 a second set runs
on fresh seeds and the change of each median from the first set is
shown against the bound.  The failed share of each run is printed too;
it must be identical in every run.  Raw results go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n"
                         f"{proc.stderr.strip()}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    report = {}
    all_steady = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            first = 1 + k * args.runs
            results = []
            for seed in range(first, first + args.runs):
                started = time.perf_counter()
                results.append(run_once(workload, seed, args.seconds))
                print(f"{workload} seed {seed}: "
                      f"{time.perf_counter() - started:.1f} s wall, "
                      f"failed {results[-1]['failed']}/"
                      f"{results[-1]['attempted']}", flush=True)
            sets.append(results)
        report[workload] = sets
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        print(f"\n{workload}: failed shares seen {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                s = spread(values)
                steady = s < bound / 3 or name == "setup_s"
                all_steady &= steady
                note = "steady" if s < bound / 3 else (
                    "spread not bounded" if name == "setup_s"
                    else "UNSTEADY")
                if k == 1:
                    first = statistics.median(
                        r["metrics"][name]["value"] for r in sets[0])
                    change = statistics.median(values) / first - 1
                    if metric["better"] == "higher":
                        change = -change
                    within = change <= bound
                    all_steady &= within
                    note += f", median {change:+.3f} vs set 1 " + \
                        ("ok" if within else "WORSE THAN BOUND")
                print(f"  {name:16s} {statistics.median(values):12.5g} "
                      f"{s:8.4f} {bound:6.3f}  set {k + 1}: {note}")
        all_steady &= len(shares) == 1
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("\nall steady" if all_steady else "\nNOT steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
