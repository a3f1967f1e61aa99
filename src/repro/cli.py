"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.cli list                 # show every available experiment
    python -m repro.cli fig14                # regenerate Figure 14 and print it
    python -m repro.cli fig21 fig10          # several experiments in one go
    python -m repro.cli all --jobs 4         # every experiment, 4 workers
    python -m repro.cli fig16 --no-cache     # force a fresh simulation
    python -m repro.cli sweep fig16 --set response_bytes=90000,450000 \\
        --set seed=1,2 --jobs 4              # user-defined parameter grid
    python -m repro.cli render --out artifacts # every charted figure ->
                                             #   CSV + Vega-Lite + index.html
    python -m repro.cli render fig16 perf --out artifacts --jobs 4

Each experiment name is a family of :data:`repro.harness.figures.FAMILIES`.
Experiments are decomposed into independent per-point runs (see
:mod:`repro.harness.sweep`): ``--jobs N`` fans those runs across worker
processes, and results are memoized in a persistent on-disk cache
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``) keyed by experiment,
parameters and a fingerprint of the simulator source — a second invocation
of ``all`` is served from disk in seconds.  ``--no-cache`` (or
``REPRO_NO_CACHE=1``) bypasses the cache; results are bit-identical either
way.

The ``sweep`` subcommand runs one experiment over the cartesian product of
user-supplied parameter values.  ``--set key=v1,v2`` sweeps ``key`` over
the listed values (each parsed as JSON, so ``--set 'windows=[1,2,4]'``
passes a list as a *single* value); valid keys are the keyword arguments
of the family's plan builder.  As a shorthand, ``--set`` with a single
experiment name implies ``sweep``::

    python -m repro.cli load_fct --set load=0.3,0.6,0.9

Protocol-parametric families accept ``--set protocol=...`` with any
registered transport name, case-insensitively (``ndp``, ``DCTCP``,
``phost``, ...; see :mod:`repro.transports.registry`)::

    python -m repro.cli load_fct --set protocol=ndp,dctcp,dcqcn,phost,mptcp,tcp

Grid points whose (protocol, family) combination the registry knows to be
meaningless — e.g. DCQCN, which needs an intact PFC fabric, under a
link-severing failure family — are reported as skipped with the reason
instead of failing the sweep.

The ``render`` subcommand is the results-to-figures pipeline
(:mod:`repro.analysis`): it materializes each family that carries a chart,
at its default parameters, as a canonical CSV plus a Vega-Lite spec and
writes one ``index.html`` over them all into ``--out DIR``.  Renders
consume the same result cache as plain runs, and the written artifacts are
byte-identical across cold, cached and ``--jobs N`` executions (locked
down by ``tests/analysis/test_golden.py``).  The ``perf`` figure charts
the events/sec trajectory recorded in ``BENCH_history.jsonl`` by
``benchmarks/perf/run_perf.py``.  ``--out``/``--png`` apply only to
``render`` and ``--set`` never does; a misplaced option, or a name given
twice, exits 2.

See ``docs/experiments.md`` for the catalogue of experiment families, the
claims they pin and worked invocations.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.harness import figures, sweep
from repro.transports.registry import IncompatibleTransportError

def main(argv: Sequence[str] | None = None) -> int:
    """Run the requested experiments and print their results."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate experiments from the NDP paper (SIGCOMM 2017).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. fig14), 'all' for every experiment, "
        "'list' to enumerate them, or 'sweep EXPERIMENT' for a parameter grid",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="fan independent simulation runs across N worker processes",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache (~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=V1,V2,...",
        dest="grid", help="(sweep only) sweep a plan parameter over values",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-run progress lines",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="(render only) directory to write figure artifacts into",
    )
    parser.add_argument(
        "--png", action="store_true",
        help="(render only) also rasterize plots, when matplotlib is available",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    misplaced = _misplaced_option(args)
    if misplaced:
        print(misplaced, file=sys.stderr)
        return 2

    if not args.experiments or args.experiments == ["list"]:
        _print_catalogue()
        return 0

    cache = None if args.no_cache else sweep.default_cache()

    if args.experiments[0] == "render":
        return _run_render(
            args.experiments[1:], args.out, args.jobs, cache, args.quiet, args.png
        )
    if args.experiments[0] == "sweep":
        return _run_sweep(args.experiments[1:], args.grid, args.jobs, cache, args.quiet)
    if args.grid:
        # shorthand: `load_fct --set load=0.3,0.6` == `sweep load_fct --set ...`
        # (an unknown single name falls through to _run_sweep's usage line,
        # which lists the valid experiments)
        if len(args.experiments) == 1:
            return _run_sweep(args.experiments, args.grid, args.jobs, cache, args.quiet)
        print("--set needs a single experiment name (or the 'sweep' subcommand)",
              file=sys.stderr)
        return 2

    if "all" in args.experiments:
        if len(args.experiments) > 1:
            print("'all' already selects every experiment; do not combine it "
                  "with other names", file=sys.stderr)
            return 2
        names = list(figures.FAMILIES)
    else:
        names = list(args.experiments)
    if _reject_duplicates(names, "experiment"):
        return 2
    unknown = [name for name in names if name not in figures.FAMILIES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        _print_catalogue()
        return 2

    return _run_experiments(names, args.jobs, cache, args.quiet)


def _run_experiments(names: List[str], jobs: int, cache, quiet: bool) -> int:
    """Fan every figure's run specs across one worker pool, then assemble."""
    plans = {name: figures.FIGURE_PLANS[name]() for name in names}
    all_specs: List[sweep.RunSpec] = []
    for name in names:
        all_specs.extend(plans[name].specs)

    started = time.time()
    baseline = _cache_counters(cache)
    progress = None if quiet else _progress_printer(len(all_specs))
    try:
        results = sweep.run_specs(all_specs, jobs=jobs, cache=cache, on_result=progress)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        if cache is not None:
            print("(completed runs were cached and will be reused)", file=sys.stderr)
        return 1

    offset = 0
    for name in names:
        plan = plans[name]
        figure_results = results[offset:offset + len(plan.specs)]
        offset += len(plan.specs)
        print(f"\n### {name} — {figures.FAMILIES[name].description}")
        _print_result(plan.assemble(figure_results))
    _print_run_summary(len(all_specs), cache, baseline, started)
    return 0


def _run_sweep(
    positional: List[str], grid_args: List[str], jobs: int, cache, quiet: bool
) -> int:
    """Run one experiment over the cartesian product of ``--set`` values."""
    if len(positional) != 1 or positional[0] not in figures.FIGURE_PLANS:
        known = ", ".join(figures.FIGURE_PLANS)
        print(f"usage: sweep EXPERIMENT --set key=v1,v2 (experiments: {known})",
              file=sys.stderr)
        return 2
    name = positional[0]
    plan_builder = figures.FIGURE_PLANS[name]
    valid = set(inspect.signature(plan_builder).parameters)
    try:
        grid = _parse_grid(grid_args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    invalid = [key for key in grid if key not in valid]
    if invalid:
        print(
            f"unknown parameter(s) for {name}: {', '.join(invalid)} "
            f"(valid: {', '.join(sorted(valid))})",
            file=sys.stderr,
        )
        return 2

    keys = list(grid)
    combos = [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[key] for key in keys))
    ]
    # Build each grid point's plan independently: a combination the transport
    # registry rejects (e.g. protocol=dcqcn under a link-severing family) is
    # skipped with its reason rather than failing the whole sweep.  The skip
    # set is deterministic — it depends only on the grid, in product order.
    built: List[tuple] = []  # (combo, plan or None, skip reason or None)
    for combo in combos:
        try:
            built.append((combo, plan_builder(**combo), None))
        except IncompatibleTransportError as error:
            built.append((combo, None, str(error)))
        except Exception as error:
            print(f"could not build {name} specs from the given grid: {error}",
                  file=sys.stderr)
            return 2
    all_specs: List[sweep.RunSpec] = []
    for _combo, plan, _reason in built:
        if plan is not None:
            all_specs.extend(plan.specs)

    started = time.time()
    baseline = _cache_counters(cache)
    progress = None if quiet else _progress_printer(len(all_specs))
    try:
        results = sweep.run_specs(all_specs, jobs=jobs, cache=cache, on_result=progress)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        print("(check the swept values match the parameter's expected shape; "
              "completed runs were cached)", file=sys.stderr)
        return 1

    offset = 0
    skipped = 0
    for combo, plan, reason in built:
        label = ", ".join(f"{key}={value}" for key, value in combo.items()) or "defaults"
        if plan is None:
            skipped += 1
            print(f"\n### {name} [{label}] — skipped: {reason}")
            continue
        combo_results = results[offset:offset + len(plan.specs)]
        offset += len(plan.specs)
        print(f"\n### {name} [{label}]")
        _print_result(plan.assemble(combo_results))
    if skipped:
        print(
            f"\n{skipped} of {len(built)} grid points skipped "
            f"(incompatible protocol/family combinations)"
        )
    _print_run_summary(len(all_specs), cache, baseline, started)
    return 0


def _run_render(
    names: List[str], out_dir: str | None, jobs: int, cache, quiet: bool, png: bool
) -> int:
    """Materialize figure artifacts (CSV + Vega-Lite + HTML index)."""
    from repro import analysis

    if not out_dir:
        print("render requires --out DIR (where to write the artifacts)",
              file=sys.stderr)
        return 2
    available = analysis.rendered_figures()
    if not names:
        names = list(available)
    if _reject_duplicates(names, "figure"):
        return 2
    unknown = [name for name in names if name not in available]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(registered: {', '.join(available)})",
            file=sys.stderr,
        )
        return 2

    started = time.time()
    baseline = _cache_counters(cache)
    total_specs = sum(
        len(figures.FIGURE_PLANS[name]().specs)
        for name in names
        if available[name].plan is not None
    )
    progress = None if quiet else _progress_printer(total_specs)
    try:
        report = analysis.render_figures(
            names, out_dir, jobs=jobs, cache=cache, on_result=progress, png=png
        )
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        if cache is not None:
            print("(completed runs were cached and will be reused)", file=sys.stderr)
        return 1

    for name in report.figures:
        print(f"  {name}: {name}.csv {name}.vl.json "
              f"({report.rows_per_figure[name]} rows)")
    if report.png_note:
        print(f"note: {report.png_note}", file=sys.stderr)
    print(f"index: {os.path.join(report.out_dir, 'index.html')}")
    _print_run_summary(total_specs, cache, baseline, started)
    return 0


def _misplaced_option(args: argparse.Namespace) -> Optional[str]:
    """Why an option cannot apply to the chosen subcommand, or ``None``.

    ``render`` draws each figure at its default parameters, so a ``--set``
    grid would be silently dropped; ``--out``/``--png`` only configure what
    ``render`` writes.
    """
    if args.experiments[:1] == ["render"]:
        if args.grid:
            return ("--set does not apply to render (figures render at their "
                    "default parameters; use 'sweep' for a grid)")
        return None
    for option, given in (("--out", args.out is not None), ("--png", args.png)):
        if given:
            return f"{option} only applies to render"
    return None


def _reject_duplicates(names: List[str], kind: str) -> bool:
    """Print an error and return True if any name is given more than once."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        print(f"{kind}(s) named more than once: {', '.join(repeated)}",
              file=sys.stderr)
    return bool(repeated)


def _parse_grid(grid_args: List[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``--set key=v1,v2`` options into {key: [values]}.

    Values are split on top-level commas (commas inside ``[...]``/``{...}``
    or quoted strings group) and each piece is parsed as JSON, falling back
    to a bare string.  Repeating a key across ``--set`` options appends to
    its value list (``--set seed=1 --set seed=2`` sweeps both).
    """
    grid: Dict[str, List[Any]] = {}
    for item in grid_args:
        key, separator, raw = item.partition("=")
        key = key.strip()
        if not separator or not key or not raw.strip():
            raise ValueError(f"--set expects KEY=V1,V2,... got {item!r}")
        grid.setdefault(key, []).extend(
            _parse_value(piece) for piece in _split_top_level(raw)
        )
    return grid


def _split_top_level(raw: str) -> List[str]:
    pieces: List[str] = []
    current: List[str] = []
    depth = 0
    quote = None  # the active string delimiter, if any
    escaped = False
    for char in raw:
        if quote is not None:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
        elif char in "[{(":
            depth += 1
        elif char in "]})":
            depth = max(0, depth - 1)
        elif char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
            continue
        current.append(char)
    pieces.append("".join(current))
    return [piece for piece in (p.strip() for p in pieces) if piece]


def _parse_value(piece: str) -> Any:
    try:
        return json.loads(piece)
    except ValueError:
        # tolerate shell-style single quotes around a bare string value
        if len(piece) >= 2 and piece[0] == piece[-1] and piece[0] in "'\"":
            return piece[1:-1]
        return piece


def _progress_printer(total: int) -> Callable[[sweep.RunSpec, int, str], None]:
    state = {"done": 0}

    def on_result(spec: sweep.RunSpec, _index: int, source: str) -> None:
        state["done"] += 1
        print(f"  [{state['done']}/{total}] {spec.experiment} ({source})", flush=True)

    return on_result


def _cache_counters(cache) -> tuple[int, int]:
    return (cache.hits, cache.misses) if cache is not None else (0, 0)


def _print_run_summary(total: int, cache, baseline: tuple[int, int], started: float) -> None:
    elapsed = time.time() - started
    if cache is not None:
        hits = cache.hits - baseline[0]
        misses = cache.misses - baseline[1]
        print(
            f"\n{total} runs in {elapsed:.1f} s "
            f"({hits} from cache, {misses} simulated; cache: {cache.root})"
        )
    else:
        print(f"\n{total} runs in {elapsed:.1f} s (cache bypassed)")


def _print_catalogue() -> None:
    print("available experiments:")
    for name, family in figures.FAMILIES.items():
        print(f"  {name:8s} {family.description}")
    print("\n  all      run every experiment (combine with --jobs N)")
    print("  sweep    run one experiment over a parameter grid (--set key=v1,v2)")
    print("  render   write figure artifacts (CSV + Vega-Lite + index.html) "
          "to --out DIR")


def _print_result(result: object) -> None:
    if isinstance(result, Mapping):
        for key, value in result.items():
            print(f"  {key}: {_summarize(value)}")
    elif isinstance(result, Iterable) and not isinstance(result, (str, bytes)):
        for row in result:
            print(f"  {_summarize(row)}")
    else:
        print(f"  {result!r}")


def _summarize(value: object) -> str:
    from repro.harness.experiment import ThroughputResult

    if isinstance(value, ThroughputResult):
        goodputs = value.sorted_goodputs_gbps()
        return (
            f"utilization={value.utilization:.3f}, "
            f"goodput_gbps[min/median/max]="
            f"{goodputs[0]:.2f}/{goodputs[len(goodputs) // 2]:.2f}/{goodputs[-1]:.2f}, "
            f"trimmed={value.trimmed_packets}, dropped={value.dropped_packets}"
        )
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_summarize(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list) and len(value) > 8:
        try:
            return f"[{len(value)} values, min={min(value):.2f}, max={max(value):.2f}]"
        except (TypeError, ValueError):  # non-scalar items, e.g. time series
            return f"[{len(value)} items]"
    return str(value)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
