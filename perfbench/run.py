"""End-to-end host-time benchmark of the NDP reproduction.

Usage::

    python3 perfbench/run.py --workload ndp_incast --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload, each repetition in a fresh process, for
about ``--seconds`` seconds (at least :data:`MIN_REPS` times) and reports the
median of each end-to-end metric: ``wall_s``, ``cpu_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` instead makes the traced run: one untraced
repetition (the base of ``trace.overhead_x``, and worker utilisation at
``-j 2`` for ``figures_sweep``), one with spans around the public calls and
one more under cProfile, and reports the per-layer metrics listed in
``BENCHMARK.json``.

Every repetition's outputs are checked (see ``workloads.py``), and
repetitions of one run must agree op by op, or the differing ops fail as
``nondeterministic``.  A human-readable report goes first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--size tiny`` shrinks every workload for the
self-tests.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".benchwork")
WORKLOADS = ("ndp_incast", "baseline_fct", "figures_sweep")

#: repetitions per timed run, whatever ``--seconds`` says
MIN_REPS = 2
#: set-up-only repetitions before each timed one, so that ``setup_s`` is a
#: median over several set-ups even when a run has room for two repetitions
SETUP_ONLY_PER_REP = 2
#: no repetition is started that could end after this many seconds
HARD_LIMIT_S = 170.0
#: jobs of the timed ``figures_sweep`` (the traced passes run serially)
SWEEP_JOBS = 2

#: failure reasons that also make the output incorrect (``correct: false``)
INCORRECT_REASONS = ("bytes_mismatch", "cold_warm_mismatch", "nondeterministic")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (it exits non-zero)."""


def run_rep(workload: str, seed: int, mode: str = "plain", size: str = "full",
            jobs: int = SWEEP_JOBS, timeout_s: float = HARD_LIMIT_S) -> Dict[str, Any]:
    """Run one repetition in a fresh process and return its JSON outcome."""
    os.makedirs(WORKDIR, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--size", size, "--jobs", str(jobs), "--workdir", WORKDIR,
    ]
    spawn_t = time.perf_counter()
    process = subprocess.Popen(
        command + ["--spawn-t", repr(spawn_t)], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload} repetition exceeded {timeout_s:.0f} s")
    finally:
        _reap_group(process.pid)
    if process.returncode != 0:
        raise BenchError(
            f"{workload} repetition failed (exit {process.returncode}):\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _reap_group(pgid: int) -> None:
    """Kill anything the repetition left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def compare_repeats(reps: Sequence[Dict[str, Any]]) -> int:
    """Ops of later repetitions whose outcome differs from the first's."""
    if not reps:
        return 0
    first = [(op["id"], op["digest"]) for op in reps[0]["ops"]]
    differing = 0
    for rep in reps[1:]:
        ops = [(op["id"], op["digest"]) for op in rep["ops"]]
        if len(ops) != len(first):
            differing += len(ops)
            continue
        differing += sum(1 for a, b in zip(first, ops) if a != b)
    return differing


def account(reps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Attempted/failed op counts, failures by named reason, correctness."""
    reasons: Counter = Counter()
    for rep in reps:
        reasons.update({k: v for k, v in rep["failures"].items() if v})
    nondeterministic = compare_repeats(reps)
    if nondeterministic:
        reasons["nondeterministic"] += nondeterministic
    attempted = sum(len(rep["ops"]) for rep in reps)
    failed = sum(reasons.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "reasons": dict(reasons),
        "correct": not any(reasons[r] for r in INCORRECT_REASONS),
    }


def timed_reps(workload: str, seed: int, seconds: float,
               size: str) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Untraced repetitions for about *seconds*, never fewer than MIN_REPS,
    and the set-up times of these and of the set-up-only repetitions."""
    started = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    lengths: List[float] = []
    while True:
        elapsed = time.perf_counter() - started
        estimate = max(lengths) if lengths else 0.0
        if len(reps) >= MIN_REPS and elapsed + estimate > seconds:
            break
        if reps and elapsed + 1.5 * estimate > HARD_LIMIT_S:
            break
        rep_started = time.perf_counter()
        for _ in range(SETUP_ONLY_PER_REP):
            setups.append(run_rep(workload, seed, mode="setup", size=size,
                                  timeout_s=HARD_LIMIT_S - elapsed)["setup_s"])
        reps.append(run_rep(workload, seed, size=size,
                            timeout_s=HARD_LIMIT_S - (time.perf_counter() - started)))
        setups.append(reps[-1]["setup_s"])
        lengths.append(time.perf_counter() - rep_started)
        _print_rep(len(reps), reps[-1], setups[-1 - SETUP_ONLY_PER_REP:-1])
    return reps, setups


def _print_rep(number: int, rep: Dict[str, Any], setup_only: Sequence[float] = ()) -> None:
    extra = ""
    if setup_only:
        extra = " (set-up only: " + ", ".join(f"{s:.3f}" for s in setup_only) + " s)"
    print(
        f"  rep {number} [{rep['mode']}]: setup {rep['setup_s']:.3f} s{extra}, "
        f"wall {rep['wall_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
        f"rss {rep['peak_rss_mb']:.1f} MB, ops {len(rep['ops'])}, "
        f"digest {rep['digest']}",
        flush=True,
    )


def end_to_end(reps: Sequence[Dict[str, Any]],
               setups: Sequence[float]) -> Dict[str, Dict[str, Any]]:
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = setups if name == "setup_s" else [rep[name] for rep in reps]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<12} median {statistics.median(values):.4f} {unit} "
              f"(min {min(values):.4f}, max {max(values):.4f}, n={len(values)})")
    return metrics


def per_layer(reps: Dict[str, Dict[str, Any]],
              accounting: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced run (see BENCHMARK.json for the list)."""
    spans, profiled = reps["spans"], reps["profile"]
    trace, profile = spans["trace"], profiled["profile"]
    counters, model = spans["counters"], spans["model"]
    share = profile["self_share"]
    events = trace["events"]
    delivered = counters.get("packets_delivered", 0)
    spec_s = trace["spec_s"]
    plain = reps["plain"]
    sweep_specs = counters.get("specs", 0)
    values: Dict[str, tuple] = {
        "sim.eventlist.events": (events, "count"),
        "sim.eventlist.events_per_run_s": (
            events / trace["run_s"] if trace["run_s"] else 0.0, "1/s"),
        "sim.eventlist.pending_at_run_end": (trace["pending_at_run_end"], "count"),
        "sim.eventlist.self_share": (share["sim.eventlist"], "ratio"),
        "sim.queues.self_share": (share["sim.queues"], "ratio"),
        "sim.queues.drops": (counters.get("drops", 0), "count"),
        "sim.queues.packets_forwarded": (counters.get("packets_forwarded", 0), "count"),
        "sim.packet.self_share": (share["sim.packet"], "ratio"),
        "core.self_share": (share["core"], "ratio"),
        "core.trimmed": (counters.get("trimmed", 0), "count"),
        "core.rtx_nack": (counters.get("rtx_nack", 0), "count"),
        "core.rtx_bounce": (counters.get("rtx_bounce", 0), "count"),
        "core.rtx_timeout": (counters.get("rtx_timeout", 0), "count"),
        "core.useful_ratio": (counters.get("useful_ratio", 0.0), "ratio"),
        "transports.self_share": (share["transports"], "ratio"),
        "transports.timer_calls": (profile["timer_calls"], "count"),
        "transports.events_per_delivered_packet": (
            events / delivered if delivered else 0.0, "ratio"),
        "topology.build_s": (trace["build_s"], "s"),
        "topology.self_share": (share["topology"], "ratio"),
        "harness.sweep.self_share": (share["harness.sweep"], "ratio"),
        "harness.sweep.spec_s.p50": (statistics.median(spec_s) if spec_s else 0.0, "s"),
        "harness.sweep.spec_s.max": (max(spec_s) if spec_s else 0.0, "s"),
        "harness.sweep.worker_util": (
            plain["cpu_s"] / (plain["counters"]["jobs"] * plain["wall_s"])
            if "jobs" in plain["counters"] else 0.0, "ratio"),
        "harness.sweep.cache_put_s": (trace["cache_put_s"], "s"),
        "harness.sweep.cache_get_s": (trace["cache_get_s"], "s"),
        "harness.sweep.warm_pass_s": (plain["counters"].get("warm_pass_s", 0.0), "s"),
        "harness.sweep.warm_hit_ratio": (
            counters["warm_hits"] / sweep_specs if sweep_specs else 0.0, "ratio"),
        "harness.figures.self_share": (share["harness.figures"], "ratio"),
        "harness.figures.plan_s": (trace["plan_s"], "s"),
        "harness.figures.assemble_s": (trace["assemble_s"], "s"),
        "other.self_share": (share["other"], "ratio"),
        "model.sim_ms": (trace["sim_ps"] / 1e9, "ms"),
        "model.incast_last_fct_ms": (model.get("incast_last_fct_ms", 0.0), "ms"),
        "model.probe_fct_p50_us.dctcp": (model.get("probe_fct_p50_us.dctcp", 0.0), "us"),
        "model.probe_fct_p50_us.mptcp": (model.get("probe_fct_p50_us.mptcp", 0.0), "us"),
        "model.probe_fct_p50_us.dcqcn": (model.get("probe_fct_p50_us.dcqcn", 0.0), "us"),
        "model.digest": (int(spans["digest"][:8], 16), "hash32"),
        "trace.overhead_x": (profiled["cpu_s"] / plain["cpu_s"], "ratio"),
        "failed_frac": (
            accounting["failed"] / accounting["attempted"], "ratio"),
    }
    for name, (value, unit) in values.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_reps(workload: str, seed: int, size: str) -> Dict[str, Dict[str, Any]]:
    """The untraced, span and cProfile repetitions."""
    started = time.perf_counter()
    reps = {}
    for number, mode in enumerate(("plain", "spans", "profile"), 1):
        jobs = SWEEP_JOBS if mode == "plain" else 1
        reps[mode] = run_rep(workload, seed, mode=mode, size=size, jobs=jobs,
                             timeout_s=HARD_LIMIT_S - (time.perf_counter() - started))
        _print_rep(number, reps[mode])
    return reps


def _print_model(reps: Sequence[Dict[str, Any]]) -> None:
    model = reps[0]["model"]
    if model:
        print("  model (simulated, must repeat exactly): " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(model.items())))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end host-time benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} trace={args.trace} size={args.size}",
          flush=True)
    try:
        if args.trace:
            by_mode = traced_reps(args.workload, args.seed, args.size)
            reps = list(by_mode.values())
        else:
            reps, setups = timed_reps(args.workload, args.seed, args.seconds, args.size)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    accounting = account(reps)
    _print_model(reps)
    print(f"  failed_frac {accounting['failed']}/{accounting['attempted']} = "
          f"{accounting['failed'] / accounting['attempted']:.4f} "
          f"reasons {accounting['reasons'] or '{}'} correct={accounting['correct']}")
    if args.trace:
        metrics = per_layer(by_mode, accounting)
    else:
        metrics = end_to_end(reps, setups)
    print(json.dumps({
        "correct": accounting["correct"],
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
