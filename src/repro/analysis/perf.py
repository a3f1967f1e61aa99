"""Perf-regression dashboard: events/sec trajectories from the history.

Turns ``BENCH_history.jsonl`` (see :mod:`repro.analysis.history`) into the
rows behind the ``perf`` figure of the results-to-figures pipeline: one row
per (scenario, capture) with the capture's sequence index, git SHA, wall
time, events/sec and flow digest, ready for a canonical CSV and a
line-per-scenario Vega-Lite trajectory chart.

The history location resolves, in order: an explicit argument, the
``REPRO_PERF_HISTORY`` environment variable, then ``BENCH_history.jsonl``
at the repository root (derived from the installed package's location).  A
missing history renders as an *empty* trajectory — header-only CSV, empty
chart — rather than an error: the dashboard must be renderable on a fresh
clone; gating on emptiness is ``tools/check_perf.py``'s job, not the
renderer's.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.analysis.history import read_history
from repro.harness.figures import Chart, Family

__all__ = [
    "HISTORY_ENV",
    "PERF_COLUMNS",
    "PERF_FIGURE",
    "default_history_path",
    "trajectory_rows",
]

#: environment variable overriding the history file location
HISTORY_ENV = "REPRO_PERF_HISTORY"

#: fixed CSV schema of the trajectory — explicit so an empty history still
#: yields a well-formed, header-only artifact
PERF_COLUMNS = (
    "scenario",
    "capture",
    "git_sha",
    "captured_at_unix",
    "python",
    "machine",
    "events_per_second",
    "events_executed",
    "wall_seconds",
    "peak_pending_events",
    "completed_flows",
    "total_flows",
    "flow_digest",
)

#: the ``perf`` render figure: the one rendered figure with no experiment
#: family (it is not in ``FAMILIES``) — its rows come from the history file
PERF_FIGURE = Family(
    "perf", "events/sec trajectory per perf scenario", plan=None,
    chart=Chart(
        "Scheduler throughput trajectory (events/sec per capture)",
        "line", "capture", "events_per_second",
        lambda _result: trajectory_rows(),
        series="scenario", columns=PERF_COLUMNS,
    ),
)


def default_history_path() -> str:
    """``$REPRO_PERF_HISTORY`` or ``<repo root>/BENCH_history.jsonl``."""
    override = os.environ.get(HISTORY_ENV)
    if override:
        return override
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    repo_root = os.path.dirname(os.path.dirname(package_root))
    return os.path.join(repo_root, "BENCH_history.jsonl")


def trajectory_rows(path: Optional[str] = None) -> List[Dict[str, Any]]:
    """The dashboard rows: per-scenario capture sequences, file order.

    ``capture`` numbers each scenario's records 0..N-1 in file (= append)
    order — the trajectory's x axis.  Environment facts are hoisted out of
    the nested record so the CSV matches :data:`PERF_COLUMNS` exactly.
    """
    if path is None:
        path = default_history_path()
    try:
        records = read_history(path)
    except FileNotFoundError:
        return []
    rows: List[Dict[str, Any]] = []
    sequence: Dict[str, int] = {}
    for record in records:
        scenario = record["scenario"]
        index = sequence.get(scenario, 0)
        sequence[scenario] = index + 1
        environment = record.get("environment") or {}
        row = {name: record.get(name) for name in PERF_COLUMNS}
        row["capture"] = index
        row["python"] = environment.get("python")
        row["machine"] = environment.get("machine")
        rows.append(row)
    return rows
