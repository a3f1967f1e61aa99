"""Tests for the ``python -m repro.cli`` front end (list / run / sweep)."""

from __future__ import annotations

import pytest

from repro import cli
from repro.analysis import render_figures
from repro.harness import figures, sweep


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent cache at a throwaway directory for every test."""
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(sweep.NO_CACHE_ENV, raising=False)
    yield


class TestCatalogue:
    def test_list_prints_every_experiment(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name, family in figures.FAMILIES.items():
            assert f"  {name:8s} {family.description}" in out
        assert "sweep" in out

    def test_no_arguments_means_list(self, capsys):
        assert cli.main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert cli.main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_single_figure_runs_and_caches(self, capsys):
        assert cli.main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "1 runs" in out and "simulated" in out
        # second invocation is served from the persistent cache
        assert cli.main(["fig12"]) == 0
        assert "1 from cache, 0 simulated" in capsys.readouterr().out

    def test_no_cache_flag_bypasses_cache(self, capsys):
        assert cli.main(["fig12", "--no-cache"]) == 0
        assert "cache bypassed" in capsys.readouterr().out
        assert cli.main(["fig12", "--no-cache"]) == 0
        assert "cache bypassed" in capsys.readouterr().out

    def test_parallel_jobs_produce_the_same_rows(self, capsys):
        assert cli.main(["fig10", "--jobs", "2", "-q"]) == 0
        parallel_out = capsys.readouterr().out
        assert cli.main(["fig10", "--no-cache", "-q"]) == 0
        serial_out = capsys.readouterr().out
        parallel_rows = [l for l in parallel_out.splitlines() if l.startswith("  ")]
        serial_rows = [l for l in serial_out.splitlines() if l.startswith("  ")]
        assert parallel_rows == serial_rows

    def test_invalid_jobs_rejected(self, capsys):
        assert cli.main(["fig12", "--jobs", "0"]) == 2

    def test_all_combined_with_other_names_rejected(self, capsys):
        assert cli.main(["all", "figg14"]) == 2
        assert "all" in capsys.readouterr().err
        assert cli.main(["fig12", "all"]) == 2

    def test_set_on_one_experiment_is_sweep_shorthand(self, capsys):
        assert cli.main(["fig12", "--set", "samples=10", "-q"]) == 0
        out = capsys.readouterr().out
        assert "### fig12 [samples=10]" in out

    def test_set_with_several_experiments_rejected(self, capsys):
        assert cli.main(["fig12", "fig10", "--set", "samples=10"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_duplicate_experiment_rejected(self, capsys):
        assert cli.main(["fig12", "fig12"]) == 2
        captured = capsys.readouterr()
        assert "more than once: fig12" in captured.err
        assert "###" not in captured.out  # nothing ran


class TestMisplacedOptions:
    """Arguments that cannot apply exit 2 instead of being silently ignored."""

    def test_set_with_render_rejected(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        argv = ["render", "fig12", "--set", "samples=10", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "--set" in capsys.readouterr().err
        assert not out.exists()

    def test_out_outside_render_rejected(self, tmp_path, capsys):
        assert cli.main(["fig12", "--out", str(tmp_path / "artifacts")]) == 2
        assert "--out only applies to render" in capsys.readouterr().err
        assert cli.main(["sweep", "fig12", "--set", "samples=10",
                         "--out", str(tmp_path)]) == 2

    def test_png_outside_render_rejected(self, capsys):
        assert cli.main(["fig12", "--png"]) == 2
        assert "--png only applies to render" in capsys.readouterr().err

    def test_duplicate_render_figure_rejected(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert cli.main(["render", "fig12", "fig12", "--out", str(out)]) == 2
        assert "more than once: fig12" in capsys.readouterr().err
        assert not out.exists()


class TestPlanLookup:
    """Every entry point builds plans through ``FIGURE_PLANS`` at call time.

    Wrapping an entry of that dict is how plan builds are timed from the
    outside; an entry point that cached a builder or read
    ``FAMILIES[name].plan`` directly would escape the wrapper.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = figures.FIGURE_PLANS["fig12"]

        def counting(**kwargs):
            calls.append(kwargs)
            return original(**kwargs)

        monkeypatch.setitem(figures.FIGURE_PLANS, "fig12", counting)
        return calls

    def test_cli_run_builds_through_the_table(self, calls):
        assert cli.main(["fig12", "-q"]) == 0
        assert len(calls) == 1

    def test_render_builds_through_the_table(self, calls, tmp_path):
        render_figures(["fig12"], str(tmp_path / "artifacts"))
        assert len(calls) == 1

    def test_run_family_builds_through_the_table(self, calls):
        figures.run_family("fig12", samples=200)
        assert calls == [{"samples": 200}]


class TestSweep:
    def test_grid_runs_every_combination(self, capsys):
        assert cli.main(
            ["sweep", "fig12", "--set", "samples=50,60", "--set", "seed=1,2", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("### fig12 [") == 4
        assert "samples=50, seed=2" in out

    def test_json_list_value_is_a_single_grid_point(self, capsys):
        assert cli.main(
            ["sweep", "fig12", "--set", "packet_sizes=[1500,9000]", "-q"]
        ) == 0
        assert capsys.readouterr().out.count("### fig12 [") == 1

    def test_unknown_parameter_rejected(self, capsys):
        assert cli.main(["sweep", "fig12", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        assert cli.main(["sweep", "nope", "--set", "seed=1"]) == 2

    def test_malformed_set_rejected(self, capsys):
        assert cli.main(["sweep", "fig12", "--set", "samples"]) == 2

    def test_wrong_shaped_value_fails_cleanly(self, capsys):
        # 'protocols' is a valid kwarg name but a bare string is the wrong
        # shape: the engine error must surface as a clean exit, no traceback
        code = cli.main(["sweep", "fig14", "--set", "protocols=NDP", "-q"])
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert "error" in captured.err or "could not build" in captured.err

    def test_unknown_protocol_lists_registered_transports(self, capsys):
        code = cli.main(
            ["sweep", "load_fct", "--set", "protocol=carrier-pigeon", "-q"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "registered transports" in captured.err
        assert "dcqcn" in captured.err

    def test_incompatible_grid_point_is_skipped_not_fatal(self, capsys):
        args = [
            "sweep", "failures_klinks",
            "--set", "protocol=ndp,dcqcn",
            "--set", "flow_bytes=45000",
            "--set", "timeout_ps=40000000000",
            "-q",
        ]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "### failures_klinks [protocol=ndp" in out
        assert "protocol=dcqcn" in out and "skipped:" in out
        assert "1 of 2 grid points skipped" in out
        # the skip decision and its message are deterministic across runs
        assert cli.main(args) == 0
        rerun = capsys.readouterr().out
        skip_lines = [l for l in out.splitlines() if "skipped:" in l]
        assert skip_lines == [l for l in rerun.splitlines() if "skipped:" in l]

    def test_all_points_skipped_still_exits_zero(self, capsys):
        assert cli.main(
            ["sweep", "failures_recovery", "--set", "protocol=dcqcn", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "skipped:" in out and "1 of 1 grid points skipped" in out


class TestGridParsing:
    def test_scalars_parse_as_json(self):
        grid = cli._parse_grid(["seed=1,2.5,true,name"])
        assert grid == {"seed": [1, 2.5, True, "name"]}

    def test_brackets_group_commas(self):
        grid = cli._parse_grid(["windows=[1,2],[4,8]"])
        assert grid == {"windows": [[1, 2], [4, 8]]}

    def test_repeated_key_extends_the_grid(self):
        grid = cli._parse_grid(["seed=1", "seed=2,3"])
        assert grid == {"seed": [1, 2, 3]}

    def test_quoted_strings_group_commas(self):
        grid = cli._parse_grid(['label="a,b","c"'])
        assert grid == {"label": ["a,b", "c"]}

    def test_single_quoted_bare_string(self):
        grid = cli._parse_grid(["label='x,y'"])
        assert grid == {"label": ["x,y"]}

    def test_stray_closing_bracket_does_not_disable_splitting(self):
        grid = cli._parse_grid(["v=],1,2"])
        assert grid == {"v": ["]", 1, 2]}
