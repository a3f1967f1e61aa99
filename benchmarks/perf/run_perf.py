"""CLI driver for the scheduler micro-benchmarks.

Usage::

    # record the reference numbers for the *current* scheduler
    PYTHONPATH=src python benchmarks/perf/run_perf.py --capture-baseline

    # time the current scheduler, compare against the stored baseline and
    # write BENCH_perf.json at the repository root
    PYTHONPATH=src python benchmarks/perf/run_perf.py

The baseline lives in ``benchmarks/perf/baseline_seed.json`` and was captured
on the pre-rework (pure-heapq) scheduler; ``BENCH_perf.json`` reports both
sets of numbers, the speedup, and whether the seeded flow digests still
match bit-for-bit.

``BENCH_perf.json`` stays a single overwritten snapshot (compatibility
with everything that reads it), but each timed run now *also* appends one
schema-versioned record per scenario — keyed by scenario name and git SHA —
to ``BENCH_history.jsonl`` at the repository root, through the atomic
(lock + temp file + rename) writer in :mod:`repro.analysis.history`.  The
trajectory renders via ``python -m repro.cli render perf --out DIR`` and
gates CI via ``tools/check_perf.py``.  ``--history PATH`` redirects the
trail (tests use this); ``--no-history`` skips the append (baseline
captures never append — they are references, not trajectory points).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
for path in (_ROOT, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.perf.micro import MICRO_SCENARIOS  # noqa: E402
from benchmarks.perf.scenarios import SCENARIOS  # noqa: E402

#: full benchmark matrix: the seeded scenario runs plus the primitive
#: micros (raw entries, batched/singleton queue drains)
ALL_SCENARIOS = {**SCENARIOS, **MICRO_SCENARIOS}

BASELINE_PATH = os.path.join(_HERE, "baseline_seed.json")
REPORT_PATH = os.path.join(_ROOT, "BENCH_perf.json")
HISTORY_PATH = os.path.join(_ROOT, "BENCH_history.jsonl")


def _git_sha() -> str:
    """HEAD's SHA, falling back to ``$GITHUB_SHA`` then ``"unknown"``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_ROOT, capture_output=True, text=True, timeout=10,
        )
        sha = completed.stdout.strip()
        if completed.returncode == 0 and sha:
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "").strip() or "unknown"


def run_all(seed: int = 1) -> dict:
    results = {}
    for name, runner in ALL_SCENARIOS.items():
        result = runner(seed=seed)
        results[name] = result.as_dict()
        print(
            f"{result.scenario}: {result.events_executed} events in "
            f"{result.wall_seconds:.2f}s -> {result.events_per_second:,.0f} ev/s, "
            f"peak pending {result.peak_pending_events}, "
            f"{result.completed_flows}/{result.total_flows} flows done"
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capture-baseline",
        action="store_true",
        help="store the measurements as the reference baseline instead of comparing",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--history", default=HISTORY_PATH, metavar="PATH",
        help="perf-history JSONL to append this capture to",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this capture to the perf history",
    )
    args = parser.parse_args(argv)

    results = run_all(seed=args.seed)
    environment = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
    }

    if args.capture_baseline:
        with open(BASELINE_PATH, "w") as fh:
            json.dump({"environment": environment, "scenarios": results}, fh, indent=2)
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    report = {"environment": environment, "scenarios": results}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        comparison = {}
        for name, current in results.items():
            ref = baseline["scenarios"].get(name)
            if ref is None:
                continue
            speedup = (
                current["events_per_second"] / ref["events_per_second"]
                if ref["events_per_second"]
                else 0.0
            )
            comparison[name] = {
                "baseline_events_per_second": ref["events_per_second"],
                "events_per_second": current["events_per_second"],
                "speedup": round(speedup, 2),
                "baseline_peak_pending_events": ref["peak_pending_events"],
                "peak_pending_events": current["peak_pending_events"],
                "flow_digest_matches_baseline": ref["flow_digest"] == current["flow_digest"],
            }
        report["baseline"] = baseline
        report["comparison"] = comparison
        for name, row in comparison.items():
            print(
                f"{name}: speedup {row['speedup']}x, digest match: "
                f"{row['flow_digest_matches_baseline']}"
            )
    else:
        print("no baseline recorded; run with --capture-baseline first", file=sys.stderr)

    with open(REPORT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"report written to {REPORT_PATH}")

    if not args.no_history:
        from repro.analysis import history

        records = history.make_records(
            results, environment, git_sha=_git_sha(), captured_at_unix=time.time()
        )
        total = history.append_history(args.history, records)
        print(
            f"history: {len(records)} record(s) appended to {args.history} "
            f"({total} total)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
