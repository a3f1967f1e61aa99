"""Behavioural tests for the ``render`` pipeline and its CLI front end.

Byte-determinism across cold/cached/parallel renders is golden-locked in
``test_golden.py``; this file covers everything else: name resolution,
artifact layout, the perf figure's history plumbing, the HTML index, the
Vega-Lite specs, and the optional-matplotlib gating.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import cli
from repro.analysis import (
    UnknownFigureError,
    render_figures,
    rendered_figures,
    vega_lite_spec,
)
from repro.analysis import history
from repro.analysis.perf import HISTORY_ENV, PERF_COLUMNS
from repro.harness import sweep
from repro.harness.figures import FAMILIES


@pytest.fixture(autouse=True)
def isolated_environment(tmp_path, monkeypatch):
    """Throwaway result cache + empty perf history for every test."""
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(sweep.NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(HISTORY_ENV, str(tmp_path / "history.jsonl"))
    yield


def _synthetic_history(path, captures=2):
    for index in range(captures):
        measurement = {
            "scenario": "incast_fanin32",
            "wall_seconds": 1.0,
            "events_executed": 1000 * (index + 1),
            "events_per_second": 1000.0 * (index + 1),
            "peak_pending_events": 5,
            "completed_flows": 32,
            "total_flows": 32,
            "final_time_ps": 999,
            "flow_digest": "c" * 64,
        }
        history.append_history(path, history.make_records(
            {"incast": measurement},
            {"python": "3.11.7", "machine": "x86_64", "seed": 1},
            f"sha{index}",
            float(index),
        ))


class TestResolution:
    def test_unknown_name_raises_before_touching_disk(self, tmp_path):
        out = tmp_path / "artifacts"
        with pytest.raises(UnknownFigureError) as excinfo:
            render_figures(["fig12", "figments"], str(out))
        assert "figments" in str(excinfo.value)
        assert "fig12" in str(excinfo.value)  # lists the registered names
        assert not out.exists()  # fails before any simulation or write

    def test_cli_unknown_figure_exits_2_and_lists_registry(self, capsys):
        assert cli.main(["render", "nope", "--out", "/tmp/unused"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure(s): nope" in err
        for name in rendered_figures():
            assert name in err

    def test_render_order_is_charted_families_then_perf(self):
        assert list(rendered_figures()) == [
            "fig10", "fig11", "fig12", "fig13", "fig16", "load_fct", "perf",
        ]

    def test_cli_render_requires_out(self, capsys):
        assert cli.main(["render", "fig12"]) == 2
        assert "--out" in capsys.readouterr().err


class TestArtifacts:
    def test_layout_and_report(self, tmp_path):
        report = render_figures(["fig12", "perf"], str(tmp_path / "a"))
        assert report.figures == ["fig12", "perf"]
        assert report.artifacts == [
            "fig12.csv", "fig12.vl.json", "perf.csv", "perf.vl.json",
            "index.html",
        ]
        for artifact in report.artifacts:
            assert os.path.exists(os.path.join(report.out_dir, artifact))
        assert report.rows_per_figure["fig12"] > 0
        assert report.rows_per_figure["perf"] == 0  # empty history
        assert not report.png_written and report.png_note is None

    def test_csv_is_canonical_lf_with_sorted_header(self, tmp_path):
        render_figures(["fig12"], str(tmp_path / "a"))
        with open(tmp_path / "a" / "fig12.csv", "rb") as fh:
            data = fh.read()
        assert b"\r" not in data and data.endswith(b"\n")
        header = data.decode().splitlines()[0].split(",")
        assert header == sorted(header)
        assert "packet_bytes" in header

    def test_cli_render_writes_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        assert cli.main(["render", "fig12", "--out", out, "-q"]) == 0
        stdout = capsys.readouterr().out
        assert "fig12: " in stdout and "fig12.csv" in stdout
        assert "index: " in stdout and "index.html" in stdout
        assert os.path.exists(os.path.join(out, "index.html"))

    def test_png_flag_without_matplotlib_notes_and_continues(
        self, tmp_path, capsys
    ):
        with pytest.raises(ImportError):  # precondition: matplotlib absent
            import matplotlib  # noqa: F401
        out = str(tmp_path / "artifacts")
        assert cli.main(["render", "fig12", "--out", out, "--png", "-q"]) == 0
        assert "matplotlib is not installed" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fig12.png"))


class TestPerfFigure:
    def test_empty_history_yields_header_only_csv(self, tmp_path):
        render_figures(["perf"], str(tmp_path / "a"))
        text = (tmp_path / "a" / "perf.csv").read_text()
        assert text == ",".join(PERF_COLUMNS) + "\n"

    def test_history_rows_flow_into_the_csv(self, tmp_path):
        _synthetic_history(os.environ[HISTORY_ENV], captures=2)
        render_figures(["perf"], str(tmp_path / "a"))
        lines = (tmp_path / "a" / "perf.csv").read_text().splitlines()
        assert lines[0] == ",".join(PERF_COLUMNS)
        assert len(lines) == 3
        first = dict(zip(PERF_COLUMNS, lines[1].split(",")))
        assert first["scenario"] == "incast"
        assert first["capture"] == "0" and first["git_sha"] == "sha0"
        assert first["events_per_second"] == "1000.0"
        second = dict(zip(PERF_COLUMNS, lines[2].split(",")))
        assert second["capture"] == "1" and second["git_sha"] == "sha1"


class TestVegaLite:
    def test_spec_file_matches_generator(self, tmp_path):
        render_figures(["fig12"], str(tmp_path / "a"))
        with open(tmp_path / "a" / "fig12.vl.json", "r", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == vega_lite_spec(FAMILIES["fig12"].chart, "fig12.csv")
        assert on_disk["data"] == {"url": "fig12.csv", "format": {"type": "csv"}}
        assert on_disk["$schema"].endswith("vega-lite/v5.json")

    def test_line_marks_get_points_and_series_gets_color(self):
        spec = vega_lite_spec(FAMILIES["fig16"].chart, "fig16.csv")
        assert spec["mark"] == {"type": "line", "point": True}
        assert spec["encoding"]["color"]["field"] == "protocol"
        bar = vega_lite_spec(FAMILIES["fig12"].chart, "fig12.csv")
        assert bar["mark"] == "bar"
        assert "color" not in bar["encoding"]


class TestIndex:
    def test_index_links_every_figure_and_inlines_the_table(self, tmp_path):
        _synthetic_history(os.environ[HISTORY_ENV], captures=1)
        render_figures(["fig12", "perf"], str(tmp_path / "a"))
        text = (tmp_path / "a" / "index.html").read_text()
        for name in ("fig12", "perf"):
            assert f'<section id="{name}">' in text
            assert f'<a href="{name}.csv">' in text
            assert f"vegaEmbed('#vis-{name}', '{name}.vl.json')" in text
        assert "<table>" in text  # inline data table
        assert "sha0" in text  # perf rows are inlined too
