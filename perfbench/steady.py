"""Steadiness check: do two sets of runs of the same commit agree?

Usage::

    python3 perfbench/steady.py                           # every workload
    python3 perfbench/steady.py --workload baseline_fct   # one workload

Runs ``perfbench/run.py --trace 0`` on seeds 1..:data:`RUNS`, twice (set A and set B,
interleaved run by run), with ``run_seconds`` from ``BENCHMARK.json``.  For
every end-to-end metric x workload it prints both medians, each set's
spread (the distance between the first and third quartile as a share of the
median), the spread of all runs together, and whether the two sets agree
within the metric's bound: each set's spread is within the bound and the two
medians differ by no more than the bound, in either direction.  ``steady``
marks a pooled spread below a third of the bound.  The raw values are
written to ``.benchwork/steady.json``.  Exits 1 if any pair disagrees or a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: runs per set, on seeds 1..RUNS
RUNS = 10


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=200)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  warning: {workload} seed {seed} reported incorrect output", flush=True)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Two-set steadiness check.")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    raw: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
    all_agree = True
    for workload in args.workload or names:
        sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for seed in range(1, RUNS + 1):
            for label in ("A", "B"):
                try:
                    sets[label].append(one_run(workload, seed, bench["run_seconds"]))
                except (RuntimeError, subprocess.TimeoutExpired) as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                print(f"  {workload} set {label} seed {seed}: " + ", ".join(
                    f"{k}={v:.4f}" for k, v in sets[label][-1].items()), flush=True)
        raw[workload] = sets
        print(f"\n{workload} ({RUNS} seeds per set)")
        print(f"  {'metric':<12} {'median A':>10} {'median B':>10} {'spread A':>9} "
              f"{'spread B':>9} {'pooled':>7} {'B worse':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            spread_a, spread_b, pooled = spread(a), spread(b), spread(a + b)
            shift = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            agree = spread_a <= bound and spread_b <= bound and abs(shift) <= bound
            all_agree &= agree
            verdict = ("agree" if agree else "DISAGREE") + (
                ", steady" if pooled < bound / 3 else ", not steady")
            print(f"  {name:<12} {statistics.median(a):>10.4f} {statistics.median(b):>10.4f} "
                  f"{spread_a:>9.4f} {spread_b:>9.4f} {pooled:>7.4f} {shift:>8.4f} "
                  f"{bound:>6.2f}  {verdict}", flush=True)
    os.makedirs(os.path.join(ROOT, ".benchwork"), exist_ok=True)
    with open(os.path.join(ROOT, ".benchwork", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    return 0 if all_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
