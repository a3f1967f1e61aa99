"""Append-only perf-history store (``BENCH_history.jsonl``).

``BENCH_perf.json`` is a single overwritten snapshot — useful for "what do
the numbers look like right now", useless for trajectories.  This module
gives every perf capture a durable, append-only trail: one JSONL record
per (scenario, capture), schema-versioned and keyed by scenario name plus
the git SHA the capture ran at, so the events/sec trajectory of each
scenario can be rendered (``repro.analysis.perf``) and gated
(``tools/check_perf.py``) across the repository's whole life.

Writer discipline matches the sweep cache (:mod:`repro.harness.sweep`):
the new content is staged to a unique temp file in the same directory and
``os.replace``d into place, so a reader never observes a torn line and a
crashed writer leaves the history untouched.  Because an append must
preserve *existing* records (unlike the cache's last-writer-wins records),
concurrent appenders additionally serialize through an ``O_EXCL`` lock
file — two processes appending simultaneously both land their records
(asserted by ``tests/analysis/test_history.py``).

Records are written as canonical JSON (sorted keys, shortest-repr floats)
so the history file itself is diff- and golden-friendly.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List, Mapping, Sequence

from repro.analysis.canonical import canonical_json

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "HistoryError",
    "make_records",
    "append_history",
    "read_history",
]

#: schema identifier stamped into every record
SCHEMA = "repro.perf_history"
#: current record version; bump on incompatible field changes.
#:
#: * **v1** — the PR 8 layout: the required measurement fields below.
#: * **v2** — adds the optional allocation metrics ``allocs_per_event`` and
#:   ``legacy_allocs_per_event`` (of the recycling pools the simulator no
#:   longer has; nothing writes them now).  Optional means exactly that: a
#:   record without them is valid, and the committed records that carry
#:   them still read — the reader accepts every version
#:   ``<= SCHEMA_VERSION`` and keeps unknown fields.
#: * **v3** — adds the optional multi-process metrics
#:   ``aggregate_events_per_second``, ``shards``, ``windows``,
#:   ``boundary_packets`` and ``max_shard_busy_seconds`` (of the sharded
#:   harness the simulator no longer has; nothing writes them now).  The
#:   committed ``shard_scale`` record that carries them still reads.
SCHEMA_VERSION = 3

#: a lock older than this is assumed to belong to a dead writer
_LOCK_STALE_SECONDS = 30.0
#: give up waiting for the lock after this long
_LOCK_TIMEOUT_SECONDS = 60.0

#: the per-scenario measurement fields copied from a perf capture
_MEASUREMENT_FIELDS = (
    "scenario",
    "wall_seconds",
    "events_executed",
    "events_per_second",
    "peak_pending_events",
    "completed_flows",
    "total_flows",
    "final_time_ps",
    "flow_digest",
)


class HistoryError(ValueError):
    """A history file is corrupt, truncated, or from an unknown schema."""


def make_records(
    scenarios: Mapping[str, Mapping[str, Any]],
    environment: Mapping[str, Any],
    git_sha: str,
    captured_at_unix: float,
) -> List[Dict[str, Any]]:
    """One schema-versioned history record per scenario of a capture.

    *scenarios* is the ``{name: measurement}`` mapping a perf run produces
    (``PerfResult.as_dict()`` values); per-transport extras (the
    ``transport_matrix`` sub-digests) are carried along untouched.
    """
    records = []
    for name, measurement in scenarios.items():
        record: Dict[str, Any] = {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "scenario": name,
            "git_sha": git_sha,
            "captured_at_unix": round(float(captured_at_unix), 3),
            "environment": dict(environment),
        }
        for key, value in measurement.items():
            if key != "scenario":  # the outer key is authoritative
                record[key] = value
        missing = [f for f in _MEASUREMENT_FIELDS if f not in record and f != "scenario"]
        if missing:
            raise HistoryError(
                f"scenario {name!r} measurement lacks field(s): {', '.join(missing)}"
            )
        records.append(record)
    return records


def append_history(path: str, records: Sequence[Mapping[str, Any]]) -> int:
    """Atomically append *records* to the JSONL history at *path*.

    Returns the total record-line count after the append.  The whole file
    is rewritten through a temp file + ``os.replace`` under an exclusive
    lock: concurrent appenders serialize, a crash mid-write leaves the old
    file intact, and a reader can never see half a line.  Existing bytes —
    including any corrupt line a reader would reject — are preserved
    verbatim; this writer never destroys history.
    """
    if not records:
        return _count_lines(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    new_lines = "".join(canonical_json(dict(record)) + "\n" for record in records)
    with _locked(path):
        try:
            with open(path, "rb") as fh:
                existing = fh.read()
        except FileNotFoundError:
            existing = b""
        if existing and not existing.endswith(b"\n"):
            existing += b"\n"  # a torn trailer stays visible as its own line
        payload = existing + new_lines.encode("utf-8")
        fd, staging = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".tmp.", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(staging, path)
        except BaseException:
            try:
                os.remove(staging)
            except OSError:
                pass
            raise
    return payload.count(b"\n")


def read_history(path: str) -> List[Dict[str, Any]]:
    """Parse every record of the history at *path*, strictly.

    Raises :class:`HistoryError` (a ``ValueError``) with the offending line
    number for corrupt JSON, records from a foreign schema, or versions
    newer than this reader understands; ``FileNotFoundError`` passes
    through.  Blank lines are tolerated (a hand-edited file stays
    readable).
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise HistoryError(
                    f"{path}: line {number} is not valid JSON ({error})"
                ) from error
            if not isinstance(record, dict) or record.get("schema") != SCHEMA:
                raise HistoryError(
                    f"{path}: line {number} is not a {SCHEMA} record"
                )
            version = record.get("schema_version")
            if not isinstance(version, int) or version > SCHEMA_VERSION:
                raise HistoryError(
                    f"{path}: line {number} has schema_version {version!r}; "
                    f"this reader understands <= {SCHEMA_VERSION}"
                )
            if not isinstance(record.get("scenario"), str):
                raise HistoryError(
                    f"{path}: line {number} lacks a scenario name"
                )
            records.append(record)
    return records


def _count_lines(path: str) -> int:
    try:
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")
    except FileNotFoundError:
        return 0


class _locked:
    """Exclusive advisory lock via ``O_CREAT | O_EXCL`` on ``path.lock``.

    Portable (works on any filesystem the history can live on), reentrancy-
    free by design, and self-healing: a lock whose mtime is older than
    :data:`_LOCK_STALE_SECONDS` is presumed abandoned by a dead writer and
    broken.  Contenders poll with a short sleep — appends are rare (one per
    perf capture) and tiny, so sophistication would buy nothing.
    """

    def __init__(self, path: str) -> None:
        self.lock_path = path + ".lock"

    def __enter__(self) -> "_locked":
        deadline = time.monotonic() + _LOCK_TIMEOUT_SECONDS
        while True:
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    if time.time() - os.stat(self.lock_path).st_mtime > _LOCK_STALE_SECONDS:
                        os.remove(self.lock_path)  # break a dead writer's lock
                        continue
                except OSError:
                    continue  # lock vanished between open and stat: retry now
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire perf-history lock {self.lock_path}"
                    ) from None
                time.sleep(0.01)

    def __exit__(self, *_exc_info: Any) -> None:
        try:
            os.remove(self.lock_path)
        except OSError:
            pass
