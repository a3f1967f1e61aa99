"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests -q``.

They use the ``tiny`` size of each workload, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] >= 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_short_probe_deadline_counts_as_deadline_missed():
    outcome = workloads.baseline_fct(
        1, workloads.Clock(), size="tiny", deadline_ps=1_000_000  # 1 us slots
    )
    probes = len(outcome["ops"])
    assert probes == 3
    accounting = run.account([outcome])
    assert accounting["reasons"] == {"deadline_missed": probes}
    assert accounting["failed"] == probes
    assert accounting["correct"] is True


def test_different_seeds_compared_as_repeats_are_nondeterministic():
    first = workloads.ndp_incast(1, workloads.Clock(), size="tiny")
    again = workloads.ndp_incast(1, workloads.Clock(), size="tiny")
    other = workloads.ndp_incast(2, workloads.Clock(), size="tiny")
    assert run.compare_repeats([first, again]) == 0
    assert run.account([first, again])["correct"] is True
    accounting = run.account([first, other])
    assert accounting["reasons"].get("nondeterministic", 0) > 0
    assert accounting["correct"] is False


def test_without_the_program_it_fails_without_a_result():
    os.makedirs(run.WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = _bench("--workload", "ndp_incast", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=bare)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
