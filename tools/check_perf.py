#!/usr/bin/env python3
"""Perf-regression gate over ``BENCH_perf.json`` and the perf history.

Compares the current perf capture against the recorded baseline
(``benchmarks/perf/baseline_seed.json``) and fails on:

* **events/sec regression** — a scenario's throughput fell *strictly more*
  than ``--threshold`` (default 10%) below its baseline (exit 1; a drop of
  exactly the threshold still passes);
* **seeded-digest drift** — a scenario's flow digest no longer matches the
  baseline's, i.e. a change altered seeded packet-level behaviour (exit 3;
  this check is machine-independent and never tolerated);
* **missing scenario** — the baseline names a scenario the report lacks
  (exit 4: a silently dropped benchmark is a gate bypass);
* **bad inputs** — report/baseline/history missing, corrupt, or the
  history is *empty* (exit 5: the gate ran before ``run_perf.py``, or the
  trajectory was lost).

Exit code 2 is left to ``argparse`` usage errors.  When several problems
coexist every one is reported and the highest code wins.  Scenarios in the
report but not the baseline are noted, not failed (new scenarios land
before their baseline does).

The 10% default is the right gate when baseline and report come from the
same machine class (a developer's capture-then-optimize loop, a dedicated
perf runner).  Across machine classes raw events/sec is not comparable —
hosted CI passes a wider ``--threshold`` and relies on the digest and
structural checks, which do not degrade with hardware (see
``benchmarks/perf/README.md``).

Usage::

    python tools/check_perf.py                     # repo-root defaults
    python tools/check_perf.py --threshold 0.5     # cross-machine headroom
    python tools/check_perf.py --report R --baseline B --history H

Exercised exhaustively by ``tests/analysis/test_check_perf.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_PATH = os.path.join(ROOT, "BENCH_perf.json")
BASELINE_PATH = os.path.join(ROOT, "benchmarks", "perf", "baseline_seed.json")
HISTORY_PATH = os.path.join(ROOT, "BENCH_history.jsonl")

EXIT_OK = 0
EXIT_REGRESSION = 1
# 2 is argparse's usage-error exit
EXIT_DIGEST_DRIFT = 3
EXIT_MISSING_SCENARIO = 4
EXIT_BAD_INPUT = 5


def _load_scenarios(path: str, label: str) -> Tuple[dict, List[Tuple[int, str]]]:
    """Load a perf JSON document's ``scenarios`` mapping, or a problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        scenarios = document["scenarios"]
        if not isinstance(scenarios, dict):
            raise ValueError("'scenarios' is not a mapping")
    except FileNotFoundError:
        return {}, [(EXIT_BAD_INPUT,
                     f"missing {label}: {path} does not exist — "
                     f"run benchmarks/perf/run_perf.py first")]
    except (OSError, ValueError, KeyError, TypeError) as error:
        return {}, [(EXIT_BAD_INPUT, f"corrupt {label}: {path}: {error}")]
    return scenarios, []


def _check_history(path: str) -> Tuple[int, List[Tuple[int, str]]]:
    """Capture count of the history, or the problem that prevents counting."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.analysis.history import HistoryError, read_history

    try:
        records = read_history(path)
    except FileNotFoundError:
        return 0, [(EXIT_BAD_INPUT,
                    f"missing history: {path} does not exist — "
                    f"run benchmarks/perf/run_perf.py first")]
    except HistoryError as error:
        return 0, [(EXIT_BAD_INPUT, f"corrupt history: {error}")]
    if not records:
        return 0, [(EXIT_BAD_INPUT,
                    f"empty history: {path} has no perf captures — "
                    f"run benchmarks/perf/run_perf.py first")]
    return len(records), []


def check(
    report_path: str,
    baseline_path: str,
    history_path: str | None,
    threshold: float,
) -> Tuple[int, List[str], List[str]]:
    """Run every gate; returns (exit_code, problem_lines, note_lines)."""
    problems: List[Tuple[int, str]] = []
    notes: List[str] = []

    current, report_problems = _load_scenarios(report_path, "report")
    problems.extend(report_problems)
    baseline, baseline_problems = _load_scenarios(baseline_path, "baseline")
    problems.extend(baseline_problems)

    checked = 0
    # an *empty* (but parseable) report must still fail the missing-scenario
    # check — guard on load success, not on the mappings being non-empty
    if not report_problems and not baseline_problems:
        for name, reference in sorted(baseline.items()):
            if name not in current:
                problems.append((
                    EXIT_MISSING_SCENARIO,
                    f"missing scenario: {name!r} is in the baseline but "
                    f"absent from the report",
                ))
                continue
            checked += 1
            measured = current[name]
            if measured.get("flow_digest") != reference.get("flow_digest"):
                problems.append((
                    EXIT_DIGEST_DRIFT,
                    f"digest drift: {name}: seeded flow digest "
                    f"{str(measured.get('flow_digest'))[:12]} != baseline "
                    f"{str(reference.get('flow_digest'))[:12]} — seeded "
                    f"behaviour changed",
                ))
            base_rate = float(reference.get("events_per_second", 0.0))
            rate = float(measured.get("events_per_second", 0.0))
            if base_rate > 0:
                drop = (base_rate - rate) / base_rate
                if drop > threshold:
                    problems.append((
                        EXIT_REGRESSION,
                        f"regression: {name}: events/sec fell {drop:.1%} "
                        f"(> {threshold:.0%} allowed): baseline "
                        f"{base_rate:,.1f} -> current {rate:,.1f}",
                    ))
        for name in sorted(set(current) - set(baseline)):
            notes.append(f"note: scenario {name!r} has no baseline yet")

    captures = 0
    if history_path is not None:
        captures, history_problems = _check_history(history_path)
        problems.extend(history_problems)

    if problems:
        return max(code for code, _ in problems), [m for _, m in problems], notes
    notes.insert(
        0,
        f"perf OK: {checked} scenario(s) within {threshold:.0%} of baseline"
        + (f"; history has {captures} capture(s)" if history_path else ""),
    )
    return EXIT_OK, [], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default=REPORT_PATH,
                        help="current capture (default: repo BENCH_perf.json)")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="recorded baseline (default: baseline_seed.json)")
    parser.add_argument("--history", default=HISTORY_PATH,
                        help="perf-history JSONL (default: BENCH_history.jsonl)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the history checks entirely")
    parser.add_argument("--threshold", type=float, default=0.10, metavar="FRACTION",
                        help="events/sec drop tolerated before failing "
                             "(default 0.10 = 10%%)")
    args = parser.parse_args(argv)
    if not 0 <= args.threshold < 1:
        parser.error(f"--threshold must be in [0, 1), got {args.threshold}")

    code, problems, notes = check(
        args.report, args.baseline,
        None if args.no_history else args.history,
        args.threshold,
    )
    for line in problems:
        print(line, file=sys.stderr)
    for line in notes:
        print(line)
    if problems:
        print(f"{len(problems)} perf problem(s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
