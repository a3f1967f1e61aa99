"""Figure registry: name -> (plan family, chart metadata, row tabulator).

The ProjectScylla-style front door of the results-to-figures pipeline: one
mapping from figure name to everything needed to materialize its artifacts
(``repro.analysis.render`` does the writing).  Simulation-backed figures
name a ``FIGURE_PLANS`` family — their data is produced by the sweep
engine, so renders ride the persistent result cache and ``--jobs N``
fan-out unchanged; the ``perf`` figure instead reads the perf-history file
(:mod:`repro.analysis.perf`).

A *tabulator* turns a family's assembled result into a flat list of
mapping rows — the long-format table the canonical CSV and the Vega-Lite
encoding share.  Tabulators must be pure and deterministic: row order may
depend only on the result's content (which the sweep engine already
guarantees is bit-identical across cold/cached/parallel executions).

Registered figure names must be documented in ``docs/experiments.md``
("From runs to figures") — enforced by ``tools/check_docs.py`` via
``tests/docs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis import perf as perf_dashboard
from repro.harness.figures import FIGURE_META, FIGURE_PLANS, ArtifactMeta

__all__ = ["RegisteredFigure", "REGISTERED_FIGURES", "UnknownFigureError"]


class UnknownFigureError(ValueError):
    """Asked to render a figure name the registry does not know."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown figure {name!r} (registered: {', '.join(REGISTERED_FIGURES)})"
        )


@dataclass(frozen=True)
class RegisteredFigure:
    """Everything the renderer needs for one figure.

    ``family`` is a ``FIGURE_PLANS`` key, or ``None`` for figures whose
    tabulator sources its own data (the perf dashboard).  For family-backed
    figures the tabulator receives the plan's assembled result; sourceless
    tabulators receive ``None``.  ``columns`` optionally pins the CSV
    schema (required for figures that can legitimately tabulate to zero
    rows, so the header survives).
    """

    name: str
    description: str
    meta: ArtifactMeta
    tabulate: Callable[[Any], List[Mapping[str, Any]]]
    family: Optional[str] = None
    columns: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Tabulators — assembled result -> long-format rows
# ---------------------------------------------------------------------------

def _rows_fig10(result: Mapping[str, float]) -> List[Mapping[str, Any]]:
    """``{"idle_us": v, ...}`` -> one (scenario, fct_us) row per case."""
    return [
        {"scenario": label[: -len("_us")] if label.endswith("_us") else label,
         "fct_us": value}
        for label, value in result.items()
    ]


def _rows_fig11(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Already long-format: (initial_window, throughput_gbps) rows."""
    return list(result)


def _rows_fig12(result: Mapping[int, Mapping[str, float]]) -> List[Mapping[str, Any]]:
    """``{packet_bytes: {stat: value}}`` -> one row per packet size."""
    return [
        {"packet_bytes": size, **result[size]} for size in sorted(result)
    ]


def _rows_fig13(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Wide (perfect_us, experimental_us) rows -> long (pacer, fct_us) rows."""
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "perfect",
                     "fct_us": entry["perfect_us"]})
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "experimental",
                     "fct_us": entry["experimental_us"]})
    return rows


def _rows_fig16(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Wide per-protocol columns -> long (senders, protocol, completion_ms).

    The ``ideal_ms`` bound becomes the pseudo-protocol ``ideal`` so the
    chart carries the paper's reference line as just another series.
    """
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        senders = entry["senders"]
        for key in sorted(entry):
            if key == "senders":
                continue
            protocol = "ideal" if key == "ideal_ms" else key
            rows.append({"senders": senders, "protocol": protocol,
                         "completion_ms": entry[key]})
    return rows


def _rows_load_fct(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """One row per (load, protocol); nested slowdown stats flatten to
    dotted columns (``slowdown.all.p99``) in the canonical CSV layer."""
    return list(result)


def _rows_perf(_result: Any) -> List[Mapping[str, Any]]:
    """Sourceless: read the perf history (empty rows on a fresh clone)."""
    return perf_dashboard.trajectory_rows()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

def _family_figure(
    family: str, description: str, tabulate: Callable[[Any], List[Mapping[str, Any]]]
) -> RegisteredFigure:
    if family not in FIGURE_PLANS:  # pragma: no cover - registration bug
        raise KeyError(f"{family!r} is not a FIGURE_PLANS family")
    return RegisteredFigure(
        name=family,
        description=description,
        meta=FIGURE_META[family],
        tabulate=tabulate,
        family=family,
    )


#: figure name -> registration, in render order of ``render`` with no
#: arguments.  Family-backed names are deliberately identical to their
#: ``FIGURE_PLANS`` key so ``repro.cli fig16`` and ``repro.cli render
#: fig16`` always talk about the same experiment.
REGISTERED_FIGURES: Dict[str, RegisteredFigure] = {
    figure.name: figure
    for figure in (
        _family_figure(
            "fig10", "short-flow FCT: idle vs prioritized vs not", _rows_fig10
        ),
        _family_figure(
            "fig11", "throughput vs initial window", _rows_fig11
        ),
        _family_figure(
            "fig12", "pull-spacing percentiles per packet size", _rows_fig12
        ),
        _family_figure(
            "fig13", "incast FCT, perfect vs jittered pulls", _rows_fig13
        ),
        _family_figure(
            "fig16", "incast scaling across protocols", _rows_fig16
        ),
        _family_figure(
            "load_fct", "size-binned FCT slowdowns vs load", _rows_load_fct
        ),
        RegisteredFigure(
            name="perf",
            description="events/sec trajectory per perf scenario",
            meta=perf_dashboard.PERF_META,
            tabulate=_rows_perf,
            family=None,
            columns=perf_dashboard.PERF_COLUMNS,
        ),
    )
}
