"""Shared helpers for the per-figure benchmark harness.

Every benchmark module reproduces one table or figure of the paper: it runs
the corresponding family through :func:`repro.harness.figures.run_family`
(timed once via pytest-benchmark), prints the regenerated rows, stores headline numbers in
``benchmark.extra_info`` and asserts the qualitative "shape" of the result
(who wins, by roughly what factor) so regressions in the protocol
implementations are caught.

Simulation results are shared across the whole pytest session through the
session-scoped :func:`sim_cache` fixture, and across *sessions* through the
persistent on-disk result cache (:mod:`repro.harness.sweep`): the first
request for a given ``(family, args)`` signature runs the experiment
under benchmark timing, any later request in the same session reuses the
in-memory result, and a later pytest session — or a ``python -m repro.cli``
invocation, which shares the same cache records — is served from
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) without re-simulating.
Records are keyed on a fingerprint of the ``repro`` package source, so any
code change invalidates them; set ``REPRO_NO_CACHE=1`` to force fresh runs.
The scheduler perf benchmarks (``benchmarks/perf/``) never consult any
cache — they exist to time the simulator.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple

import pytest

# make `src/` importable when the package is not installed
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.harness import sweep  # noqa: E402


class SimResultCache:
    """Session memo of figure results, keyed by call signature.

    Figure families are deterministic (seeded), so a result computed once
    is valid for the rest of the session.  Keys combine the callable's
    qualified name with the ``repr`` of its arguments (the family name is
    the first of them); values are returned by reference — benchmark
    assertions only read them.

    Persistence across sessions happens one layer down: ``run_family``
    runs the family's specs through the shared
    :class:`repro.harness.sweep.ResultCache` (the same records the CLI
    writes), so a memory miss whose underlying runs are all on disk costs
    milliseconds, not a simulation.  :func:`run_cached` inspects that
    cache's counters to label each benchmark honestly.
    """

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, str, str], Any] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(function: Callable, args: tuple, kwargs: dict) -> Tuple[str, str, str]:
        name = getattr(function, "__qualname__", repr(function))
        module = getattr(function, "__module__", "")
        return (f"{module}.{name}", repr(args), repr(sorted(kwargs.items())))

    def fetch(self, function: Callable, *args, **kwargs):
        """Return the cached result, running *function* on the first request."""
        key = self._key(function, args, kwargs)
        try:
            result = self._results[key]
        except KeyError:
            self.misses += 1
            result = self._results[key] = function(*args, **kwargs)
            return result
        self.hits += 1
        return result

    def __contains__(self, item: Tuple[Callable, tuple, dict]) -> bool:
        function, args, kwargs = item
        return self._key(function, args, kwargs) in self._results


_SESSION_CACHE = SimResultCache()


@pytest.fixture(scope="session")
def sim_cache() -> SimResultCache:
    """The per-session simulation-result cache (ROADMAP: stop re-running
    whole experiments for every figure); the families underneath it share
    the persistent disk cache with ``python -m repro.cli``."""
    return _SESSION_CACHE


def run_once(benchmark, function, *args, **kwargs):
    """Execute *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_cached(benchmark, cache: SimResultCache, function, *args, **kwargs):
    """Like :func:`run_once`, but consulting the session + disk caches first.

    The cache source is recorded in ``benchmark.extra_info`` (a cached
    timing reflects lookups, not simulation) so result tables stay honest:
    ``"hit"`` for a session-memory hit, ``"disk"`` when the family ran
    but every underlying simulation was served from the persistent sweep
    cache (a previous session or CLI run), ``"miss"`` when at least one
    fresh simulation was executed.
    """
    memory_hit = (function, args, kwargs) in cache
    disk = sweep.default_cache()
    before = (disk.hits, disk.misses) if disk is not None else (0, 0)
    result = benchmark.pedantic(
        cache.fetch, args=(function, *args), kwargs=kwargs, rounds=1, iterations=1
    )
    if memory_hit:
        label = "hit"
    elif disk is not None and disk.hits > before[0] and disk.misses == before[1]:
        label = "disk"
    else:
        label = "miss"
    benchmark.extra_info["sim_cache"] = label
    return result


def print_table(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a list of dict rows as an aligned table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))


def print_mapping(title: str, mapping: Mapping[str, object]) -> None:
    """Print a flat mapping as ``key: value`` lines."""
    print(f"\n=== {title} ===")
    for key, value in mapping.items():
        print(f"  {key}: {_fmt(value)}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
