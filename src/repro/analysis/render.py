"""Artifact renderer: charted figures -> CSV + Vega-Lite + HTML index.

``render_figures(names, out_dir)`` is the engine behind ``python -m
repro.cli render``.  The figures it knows (:func:`rendered_figures`) are
the experiment families with a :class:`~repro.harness.figures.Chart`, in
``FAMILIES`` order, then the ``perf`` dashboard
(:mod:`repro.analysis.perf`).  For every requested figure it writes

* ``<name>.csv`` — the tabulated rows in canonical form (sorted columns,
  shortest-repr floats, LF endings; see :mod:`repro.analysis.canonical`),
* ``<name>.vl.json`` — a Vega-Lite v5 spec whose ``data.url`` points at
  the CSV, serialized with sorted keys, and
* one ``index.html`` — a dependency-free page with every figure's data
  table inline plus a Vega-Embed block per chart (charts render when the
  CDN is reachable; the tables always render).

Simulation-backed figures execute through one
:func:`repro.harness.sweep.run_specs` batch, so a render shares the
persistent result cache with the plain CLI and benchmarks and fans across
``--jobs N`` workers; every byte written is identical across cold, cached
and parallel renders (golden-locked by ``tests/analysis/test_golden.py``).

Matplotlib is deliberately optional (the simulator is stdlib-only): when
it is importable and ``png=True``, a ``<name>.png`` is rendered per figure
as a convenience.  PNGs are *not* part of the byte-determinism contract —
raster output varies across matplotlib/freetype builds — which is exactly
why the canonical artifacts are CSV + Vega-Lite.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.canonical import canonical_cell, canonical_json, flatten_row, rows_to_csv
from repro.analysis.perf import PERF_FIGURE
from repro.harness import sweep
from repro.harness.figures import FAMILIES, FIGURE_PLANS, Chart, Family

__all__ = [
    "RenderReport",
    "UnknownFigureError",
    "render_figures",
    "rendered_figures",
    "vega_lite_spec",
]

#: rows shown inline per figure in the HTML index (full data is in the CSV)
_INDEX_MAX_ROWS = 40

_VEGA_CDN = (
    '<script src="https://cdn.jsdelivr.net/npm/vega@5"></script>\n'
    '<script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>\n'
    '<script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>\n'
)


def rendered_figures() -> Dict[str, Family]:
    """Render name -> figure: charted families in table order, then ``perf``.

    Family-backed names are their ``FAMILIES`` key, so ``repro.cli fig16``
    and ``repro.cli render fig16`` always talk about the same experiment.
    """
    figures = {name: family for name, family in FAMILIES.items()
               if family.chart is not None}
    figures[PERF_FIGURE.name] = PERF_FIGURE
    return figures


class UnknownFigureError(ValueError):
    """Asked to render a figure name :func:`rendered_figures` does not know."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown figure {name!r} (registered: {', '.join(rendered_figures())})"
        )


@dataclass
class RenderReport:
    """What one :func:`render_figures` call produced."""

    out_dir: str
    figures: List[str] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)  # paths relative to out_dir
    rows_per_figure: Dict[str, int] = field(default_factory=dict)
    png_written: bool = False
    png_note: Optional[str] = None


def render_figures(
    names: Sequence[str],
    out_dir: str,
    jobs: int = 1,
    cache: Any = sweep.USE_DEFAULT_CACHE,
    on_result: Optional[Callable[[sweep.RunSpec, int, str], None]] = None,
    png: bool = False,
) -> RenderReport:
    """Render *names* (order-preserving) into *out_dir*.

    Unknown names raise :class:`UnknownFigureError` before any simulation
    starts.  All family plans are built first and their specs executed in
    one batch — figures interleave across the worker pool exactly like a
    multi-figure CLI run.
    """
    figures = [_resolve(name) for name in names]
    plans = {
        figure.name: FIGURE_PLANS[figure.name]()
        for figure in figures
        if figure.plan is not None
    }
    all_specs: List[sweep.RunSpec] = []
    for figure in figures:
        if figure.plan is not None:
            all_specs.extend(plans[figure.name].specs)
    spec_results = sweep.run_specs(all_specs, jobs=jobs, cache=cache, on_result=on_result)

    os.makedirs(out_dir, exist_ok=True)
    report = RenderReport(out_dir=out_dir)
    tables: Dict[str, List[Mapping[str, Any]]] = {}
    offset = 0
    for figure in figures:
        if figure.plan is not None:
            plan = plans[figure.name]
            assembled = plan.assemble(spec_results[offset:offset + len(plan.specs)])
            offset += len(plan.specs)
        else:
            assembled = None
        rows = figure.chart.tabulate(assembled)
        tables[figure.name] = rows
        csv_name = f"{figure.name}.csv"
        _write_text(os.path.join(out_dir, csv_name),
                    rows_to_csv(rows, columns=figure.chart.columns))
        spec = vega_lite_spec(figure.chart, csv_name)
        _write_text(os.path.join(out_dir, f"{figure.name}.vl.json"),
                    canonical_json(spec, indent=2) + "\n")
        report.figures.append(figure.name)
        report.artifacts.extend([csv_name, f"{figure.name}.vl.json"])
        report.rows_per_figure[figure.name] = len(rows)

    _write_text(os.path.join(out_dir, "index.html"), _index_html(figures, tables))
    report.artifacts.append("index.html")

    if png:
        report.png_written, report.png_note = _render_pngs(figures, tables, out_dir)
        if report.png_written:
            report.artifacts.extend(f"{figure.name}.png" for figure in figures)
    return report


def _resolve(name: str) -> Family:
    try:
        return rendered_figures()[name]
    except KeyError:
        raise UnknownFigureError(name) from None


def vega_lite_spec(chart: Chart, csv_url: str) -> Dict[str, Any]:
    """A Vega-Lite v5 spec plotting the canonical CSV at *csv_url*."""
    encoding: Dict[str, Any] = {
        "x": {"field": chart.x, "type": chart.x_type,
              "axis": {"title": chart.x}},
        "y": {"field": chart.y, "type": "quantitative",
              "axis": {"title": chart.y}},
    }
    if chart.series is not None:
        encoding["color"] = {"field": chart.series, "type": "nominal",
                             "legend": {"title": chart.series}}
    mark: Any = chart.mark
    if chart.mark == "line":
        mark = {"type": "line", "point": True}
    return {
        "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
        "title": chart.title,
        "data": {"url": csv_url, "format": {"type": "csv"}},
        "mark": mark,
        "encoding": encoding,
        "width": 480,
        "height": 300,
    }


# ---------------------------------------------------------------------------
# HTML index
# ---------------------------------------------------------------------------

def _index_html(
    figures: Sequence[Family],
    tables: Mapping[str, List[Mapping[str, Any]]],
) -> str:
    """One deterministic page: nav, then per-figure chart mount + table."""
    parts: List[str] = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n",
        "<meta charset=\"utf-8\">\n",
        "<title>repro figure artifacts</title>\n",
        _VEGA_CDN,
        "<style>\n"
        "body{font-family:sans-serif;margin:2rem;max-width:70rem}\n"
        "table{border-collapse:collapse;margin:0.5rem 0}\n"
        "th,td{border:1px solid #ccc;padding:0.2rem 0.5rem;"
        "font-variant-numeric:tabular-nums}\n"
        "th{background:#f0f0f0}\n"
        "section{margin-bottom:3rem}\n"
        "</style>\n</head>\n<body>\n",
        "<h1>Figure artifacts</h1>\n",
        "<p>Deterministic CSV + Vega-Lite renderings of the registered "
        "figures (charts need the Vega CDN; the tables below are "
        "self-contained). Regenerate with <code>python -m repro.cli render "
        "... --out DIR</code>.</p>\n<nav><ul>\n",
    ]
    for figure in figures:
        parts.append(
            f'<li><a href="#{html.escape(figure.name)}">'
            f"{html.escape(figure.name)}</a> — "
            f"{html.escape(figure.description)}</li>\n"
        )
    parts.append("</ul></nav>\n")
    for figure in figures:
        name = html.escape(figure.name)
        rows = tables[figure.name]
        parts.append(f'<section id="{name}">\n')
        parts.append(f"<h2>{name} — {html.escape(figure.chart.title)}</h2>\n")
        parts.append(
            f'<p><a href="{name}.csv">{name}.csv</a> · '
            f'<a href="{name}.vl.json">{name}.vl.json</a> · '
            f"{len(rows)} row(s)</p>\n"
        )
        parts.append(f'<div id="vis-{name}"></div>\n')
        parts.append(
            f"<script>vegaEmbed('#vis-{name}', '{name}.vl.json')"
            ".catch(function(){});</script>\n"
        )
        parts.append(_html_table(rows))
        parts.append("</section>\n")
    parts.append("</body>\n</html>\n")
    return "".join(parts)


def _html_table(rows: List[Mapping[str, Any]]) -> str:
    if not rows:
        return "<p><em>no rows (empty source)</em></p>\n"
    flat = [flatten_row(row) for row in rows]
    columns: List[str] = sorted({name for row in flat for name in row})
    out: List[str] = ["<table>\n<tr>"]
    out.extend(f"<th>{html.escape(name)}</th>" for name in columns)
    out.append("</tr>\n")
    for row in flat[:_INDEX_MAX_ROWS]:
        out.append("<tr>")
        out.extend(
            f"<td>{html.escape(canonical_cell(row.get(name)))}</td>"
            for name in columns
        )
        out.append("</tr>\n")
    out.append("</table>\n")
    if len(flat) > _INDEX_MAX_ROWS:
        out.append(
            f"<p><em>first {_INDEX_MAX_ROWS} of {len(flat)} rows — "
            "full data in the CSV</em></p>\n"
        )
    return "".join(out)


# ---------------------------------------------------------------------------
# Optional matplotlib backend
# ---------------------------------------------------------------------------

def _render_pngs(
    figures: Sequence[Family],
    tables: Mapping[str, List[Mapping[str, Any]]],
    out_dir: str,
) -> tuple:
    """Best-effort raster plots; (written?, note when skipped)."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False, "matplotlib is not installed; skipped PNG rendering"
    for figure in figures:
        flat = [flatten_row(row) for row in tables[figure.name]]
        chart = figure.chart
        fig, axes = plt.subplots(figsize=(6.4, 4.0))
        series: Dict[str, List[tuple]] = {}
        for row in flat:
            label = str(row.get(chart.series, "")) if chart.series else ""
            x, y = row.get(chart.x), row.get(chart.y)
            if x is None or y is None:
                continue
            series.setdefault(label, []).append((x, y))
        for label in sorted(series):
            xs, ys = zip(*series[label])
            if chart.mark == "bar":
                axes.bar([str(x) for x in xs], ys, label=label or None)
            else:
                axes.plot(xs, ys, marker="o", label=label or None)
        axes.set_title(chart.title)
        axes.set_xlabel(chart.x)
        axes.set_ylabel(chart.y)
        if chart.series:
            axes.legend(title=chart.series)
        fig.tight_layout()
        fig.savefig(os.path.join(out_dir, f"{figure.name}.png"))
        plt.close(fig)
    return True, None


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
