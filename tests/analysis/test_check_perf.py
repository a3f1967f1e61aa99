"""Exhaustive decision-matrix tests for ``tools/check_perf.py``.

Every row of the gate's contract is pinned: the exact exit code *and* the
message a CI log would show, for regressions just under / just over the
threshold, digest drift, scenarios dropped from the report, and every
flavour of unusable input.  The synthetic fixtures are machine-independent
on purpose — this file is where the strict 10% default is enforceable,
unlike the cross-machine CI invocation (see ``benchmarks/perf/README.md``).
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.analysis import history

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "check_perf.py",
)
_spec = importlib.util.spec_from_file_location("check_perf", _TOOL)
check_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf)


def _scenario(events_per_second, digest="a" * 64):
    return {
        "scenario": "synthetic",
        "wall_seconds": 1.0,
        "events_executed": int(events_per_second),
        "events_per_second": events_per_second,
        "peak_pending_events": 10,
        "completed_flows": 4,
        "total_flows": 4,
        "final_time_ps": 1000,
        "flow_digest": digest,
    }


@pytest.fixture
def perf_dir(tmp_path):
    """Baseline (100k ev/s), matching report, one-capture history."""

    def write(name, scenarios):
        path = tmp_path / name
        path.write_text(json.dumps({"environment": {}, "scenarios": scenarios}))
        return str(path)

    baseline = write("baseline.json", {"incast": _scenario(100_000.0)})
    report = write("report.json", {"incast": _scenario(100_000.0)})
    hist = str(tmp_path / "history.jsonl")
    history.append_history(
        hist,
        history.make_records({"incast": _scenario(100_000.0)}, {}, "sha", 0.0),
    )
    return {"dir": tmp_path, "write": write, "baseline": baseline,
            "report": report, "history": hist}


def _run(perf_dir, capsys, report=None, **overrides):
    argv = [
        "--report", report or perf_dir["report"],
        "--baseline", perf_dir["baseline"],
        "--history", perf_dir["history"],
    ]
    for flag, value in overrides.items():
        argv.append("--" + flag.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    code = check_perf.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHealthyInputs:
    def test_identical_numbers_pass(self, perf_dir, capsys):
        code, out, err = _run(perf_dir, capsys)
        assert code == check_perf.EXIT_OK == 0
        assert "perf OK: 1 scenario(s) within 10% of baseline" in out
        assert "history has 1 capture(s)" in out
        assert err == ""

    def test_drop_just_under_threshold_passes(self, perf_dir, capsys):
        report = perf_dir["write"](
            "under.json", {"incast": _scenario(90_001.0)}  # -9.999%
        )
        code, out, _err = _run(perf_dir, capsys, report=report)
        assert code == 0
        assert "perf OK" in out

    def test_drop_of_exactly_threshold_passes(self, perf_dir, capsys):
        # the documented boundary: strictly-more-than, not at-least
        report = perf_dir["write"]("edge.json", {"incast": _scenario(90_000.0)})
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == 0 and err == ""

    def test_speedup_passes(self, perf_dir, capsys):
        report = perf_dir["write"]("fast.json", {"incast": _scenario(250_000.0)})
        assert _run(perf_dir, capsys, report=report)[0] == 0

    def test_new_scenario_without_baseline_is_a_note_not_a_failure(
        self, perf_dir, capsys
    ):
        report = perf_dir["write"](
            "extra.json",
            {"incast": _scenario(100_000.0), "novel": _scenario(5.0, "b" * 64)},
        )
        code, out, err = _run(perf_dir, capsys, report=report)
        assert code == 0
        assert "note: scenario 'novel' has no baseline yet" in out
        assert err == ""


class TestRegression:
    def test_drop_just_over_threshold_fails(self, perf_dir, capsys):
        report = perf_dir["write"](
            "over.json", {"incast": _scenario(89_999.0)}  # -10.001%
        )
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == check_perf.EXIT_REGRESSION == 1
        assert "regression: incast: events/sec fell 10.0% (> 10% allowed)" in err
        assert "baseline 100,000.0 -> current 89,999.0" in err

    def test_custom_threshold_is_respected(self, perf_dir, capsys):
        report = perf_dir["write"]("half.json", {"incast": _scenario(60_000.0)})
        assert _run(perf_dir, capsys, report=report, threshold=0.5)[0] == 0
        code, _out, err = _run(perf_dir, capsys, report=report, threshold=0.3)
        assert code == 1 and "(> 30% allowed)" in err

    def test_threshold_outside_range_is_a_usage_error(self, perf_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _run(perf_dir, capsys, threshold=1.5)
        assert excinfo.value.code == 2  # argparse usage error


class TestDigestDrift:
    def test_digest_mismatch_fails_even_with_fine_throughput(
        self, perf_dir, capsys
    ):
        report = perf_dir["write"](
            "drift.json", {"incast": _scenario(100_000.0, digest="f" * 64)}
        )
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == check_perf.EXIT_DIGEST_DRIFT == 3
        assert (
            "digest drift: incast: seeded flow digest ffffffffffff != "
            "baseline aaaaaaaaaaaa — seeded behaviour changed" in err
        )

    def test_digest_check_ignores_threshold(self, perf_dir, capsys):
        # cross-machine CI runs with a wide threshold; drift must still fail
        report = perf_dir["write"](
            "drift2.json", {"incast": _scenario(99_000.0, digest="f" * 64)}
        )
        assert _run(perf_dir, capsys, report=report, threshold=0.9)[0] == 3


class TestMissingScenario:
    def test_scenario_dropped_from_report_fails(self, perf_dir, capsys):
        report = perf_dir["write"]("empty.json", {})
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == check_perf.EXIT_MISSING_SCENARIO == 4
        assert (
            "missing scenario: 'incast' is in the baseline but absent "
            "from the report" in err
        )


class TestBadInputs:
    def test_missing_report_file(self, perf_dir, capsys):
        missing = str(perf_dir["dir"] / "nope.json")
        code, _out, err = _run(perf_dir, capsys, report=missing)
        assert code == check_perf.EXIT_BAD_INPUT == 5
        assert f"missing report: {missing} does not exist" in err
        assert "run benchmarks/perf/run_perf.py first" in err

    def test_corrupt_report_file(self, perf_dir, capsys):
        path = perf_dir["dir"] / "corrupt.json"
        path.write_text("{not json")
        code, _out, err = _run(perf_dir, capsys, report=str(path))
        assert code == 5 and "corrupt report:" in err

    def test_report_without_scenarios_key(self, perf_dir, capsys):
        path = perf_dir["dir"] / "hollow.json"
        path.write_text(json.dumps({"environment": {}}))
        code, _out, err = _run(perf_dir, capsys, report=str(path))
        assert code == 5 and "corrupt report:" in err

    def test_missing_history_file(self, perf_dir, capsys):
        os.remove(perf_dir["history"])
        code, _out, err = _run(perf_dir, capsys)
        assert code == 5
        assert "missing history:" in err

    def test_empty_history_file(self, perf_dir, capsys):
        with open(perf_dir["history"], "w"):
            pass
        code, _out, err = _run(perf_dir, capsys)
        assert code == 5
        assert "empty history:" in err
        assert "has no perf captures" in err

    def test_corrupt_history_file(self, perf_dir, capsys):
        with open(perf_dir["history"], "a") as fh:
            fh.write("{broken\n")
        code, _out, err = _run(perf_dir, capsys)
        assert code == 5 and "corrupt history:" in err

    def test_no_history_flag_skips_the_history_gate(self, perf_dir, capsys):
        os.remove(perf_dir["history"])
        code, out, _err = _run(perf_dir, capsys, no_history=True)
        assert code == 0
        assert "history has" not in out  # no history claim when skipped


class TestCombinedProblems:
    def test_highest_exit_code_wins_and_all_problems_print(
        self, perf_dir, capsys
    ):
        # regression (1) + drift (3) + empty history (5) -> exit 5, 3 lines
        report = perf_dir["write"](
            "worst.json", {"incast": _scenario(10_000.0, digest="f" * 64)}
        )
        with open(perf_dir["history"], "w"):
            pass
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == 5
        for fragment in ("regression:", "digest drift:", "empty history:"):
            assert fragment in err
        assert "3 perf problem(s)" in err

    def test_drift_beats_regression(self, perf_dir, capsys):
        report = perf_dir["write"](
            "both.json", {"incast": _scenario(10_000.0, digest="f" * 64)}
        )
        code, _out, err = _run(perf_dir, capsys, report=report)
        assert code == 3
        assert "regression:" in err and "digest drift:" in err
