"""``repro.analysis`` — results-to-figures pipeline and perf dashboard.

The verification surface between cached sweep results and the paper's
figures: canonical CSV/JSON serialization (:mod:`repro.analysis.canonical`),
the artifact renderer behind ``python -m repro.cli render``
(:mod:`repro.analysis.render`, which charts the families that carry a
:class:`~repro.harness.figures.Chart`), and the perf-history subsystem
(:mod:`repro.analysis.history`, :mod:`repro.analysis.perf`) that
``benchmarks/perf`` appends to and ``tools/check_perf.py`` gates CI on.

Everything written here is byte-deterministic: cold, cached and parallel
renders of the same figures produce identical files, golden-locked by
``tests/analysis``.
"""

from repro.analysis.canonical import (
    canonical_cell,
    canonical_float,
    canonical_json,
    flatten_row,
    rows_to_csv,
)
from repro.analysis.render import (
    RenderReport,
    UnknownFigureError,
    render_figures,
    rendered_figures,
    vega_lite_spec,
)

__all__ = [
    "RenderReport",
    "UnknownFigureError",
    "canonical_cell",
    "canonical_float",
    "canonical_json",
    "flatten_row",
    "render_figures",
    "rendered_figures",
    "rows_to_csv",
    "vega_lite_spec",
]
