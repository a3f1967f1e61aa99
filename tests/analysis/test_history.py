"""Perf-history store: atomic appends, strict reads, concurrent writers."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import history, perf
from repro.analysis.canonical import canonical_json


def _capture(events_per_second=100_000.0, digest="d" * 64):
    return {
        "permutation": {
            "scenario": "permutation_k8_180kB",
            "wall_seconds": 0.25,
            "events_executed": 94200,
            "events_per_second": events_per_second,
            "peak_pending_events": 4725,
            "completed_flows": 128,
            "total_flows": 128,
            "final_time_ps": 266304000,
            "flow_digest": digest,
        }
    }


ENV = {"python": "3.11.7", "machine": "x86_64", "seed": 1}


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        records = history.make_records(_capture(), ENV, "abc123", 1700000000.5)
        assert history.append_history(path, records) == 1
        read = history.read_history(path)
        assert read == records
        assert read[0]["schema"] == history.SCHEMA
        assert read[0]["schema_version"] == history.SCHEMA_VERSION
        assert read[0]["scenario"] == "permutation"
        assert read[0]["git_sha"] == "abc123"
        assert read[0]["environment"] == ENV

    def test_appends_accumulate_in_order(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        for sha in ("aaa", "bbb", "ccc"):
            history.append_history(
                path, history.make_records(_capture(), ENV, sha, 0.0)
            )
        assert [r["git_sha"] for r in history.read_history(path)] == [
            "aaa", "bbb", "ccc",
        ]

    def test_append_leaves_no_staging_or_lock_files(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        history.append_history(path, history.make_records(_capture(), ENV, "x", 0.0))
        assert sorted(os.listdir(tmp_path)) == ["history.jsonl"]

    def test_append_nothing_is_a_no_op(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        assert history.append_history(path, []) == 0
        assert not os.path.exists(path)

    def test_missing_measurement_field_is_rejected(self):
        capture = _capture()
        del capture["permutation"]["flow_digest"]
        with pytest.raises(history.HistoryError, match="flow_digest"):
            history.make_records(capture, ENV, "x", 0.0)

    def test_records_are_canonical_json_lines(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        records = history.make_records(_capture(), ENV, "x", 0.0)
        history.append_history(path, records)
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline().rstrip("\n")
        assert line == canonical_json(records[0])


class TestStrictReads:
    def test_corrupt_json_line_names_the_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        records = history.make_records(_capture(), ENV, "x", 0.0)
        history.append_history(str(path), records)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
        with pytest.raises(history.HistoryError, match="line 2"):
            history.read_history(str(path))

    def test_foreign_schema_is_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": "someone.else", "scenario": "x"}) + "\n")
        with pytest.raises(history.HistoryError, match="not a repro.perf_history"):
            history.read_history(str(path))

    def test_future_version_is_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        record = dict(
            history.make_records(_capture(), ENV, "x", 0.0)[0],
            schema_version=history.SCHEMA_VERSION + 1,
        )
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(history.HistoryError, match="schema_version"):
            history.read_history(str(path))

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "history.jsonl"
        records = history.make_records(_capture(), ENV, "x", 0.0)
        path.write_text("\n" + canonical_json(records[0]) + "\n\n")
        assert history.read_history(str(path)) == records

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            history.read_history(str(tmp_path / "absent.jsonl"))

    def test_torn_trailing_line_is_preserved_not_merged(self, tmp_path):
        """An interrupted legacy writer's torn tail must not swallow appends."""
        path = tmp_path / "history.jsonl"
        path.write_text('{"schema": "repro.perf_history", "scenario"')  # no newline
        records = history.make_records(_capture(), ENV, "x", 0.0)
        history.append_history(str(path), records)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # torn line stays its own (detectably bad) line
        assert json.loads(lines[1])["git_sha"] == "x"


class TestConcurrentWriters:
    def test_parallel_appends_all_land(self, tmp_path):
        """N processes hammering the same history lose no records."""
        path = str(tmp_path / "history.jsonl")
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from repro.analysis import history\n"
            "capture = {'s': {'scenario': 's', 'wall_seconds': 0.1,\n"
            "    'events_executed': 10, 'events_per_second': 100.0,\n"
            "    'peak_pending_events': 1, 'completed_flows': 1,\n"
            "    'total_flows': 1, 'final_time_ps': 1, 'flow_digest': 'f'}}\n"
            "for index in range(10):\n"
            "    history.append_history(sys.argv[1], history.make_records(\n"
            "        capture, {}, f'writer{sys.argv[2]}-{index}', 0.0))\n"
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, path, str(writer), src],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for writer in range(4)
        ]
        for process in processes:
            _out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err.decode()
        records = history.read_history(path)
        shas = [record["git_sha"] for record in records]
        expected = {f"writer{w}-{i}" for w in range(4) for i in range(10)}
        assert len(shas) == 40 and set(shas) == expected
        leftovers = [f for f in os.listdir(tmp_path) if f != "history.jsonl"]
        assert leftovers == []


class TestTrajectoryRows:
    def test_rows_sequence_per_scenario(self, tmp_path, monkeypatch):
        path = str(tmp_path / "history.jsonl")
        for rate, sha in ((100.0, "aaa"), (120.0, "bbb")):
            history.append_history(
                path, history.make_records(_capture(rate), ENV, sha, 5.0)
            )
        monkeypatch.setenv(perf.HISTORY_ENV, path)
        rows = perf.trajectory_rows()
        assert [row["capture"] for row in rows] == [0, 1]
        assert [row["events_per_second"] for row in rows] == [100.0, 120.0]
        assert rows[0]["scenario"] == "permutation"
        assert rows[0]["python"] == "3.11.7" and rows[0]["machine"] == "x86_64"
        assert rows[1]["git_sha"] == "bbb"

    def test_committed_history_still_reads(self, monkeypatch):
        # the committed file keeps v2 alloc columns and a v3 multi-process
        # record that nothing writes any more; both must stay readable
        monkeypatch.delenv(perf.HISTORY_ENV, raising=False)
        path = perf.default_history_path()
        records = history.read_history(path)
        assert {record["schema_version"] for record in records} == {1, 2, 3}
        assert any("allocs_per_event" in record for record in records)
        assert any("aggregate_events_per_second" in record for record in records)
        rows = perf.trajectory_rows()
        assert len(rows) == len(records)
        assert [row["scenario"] for row in rows] == [
            record["scenario"] for record in records
        ]

    def test_missing_history_renders_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv(perf.HISTORY_ENV, str(tmp_path / "none.jsonl"))
        assert perf.trajectory_rows() == []
