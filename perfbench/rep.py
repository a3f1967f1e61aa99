"""One repetition of one workload, in a process of its own.

Usage (``perfbench/run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/rep.py --workload ndp_incast --seed 1 --mode plain \\
        --spawn-t <parent perf_counter> --workdir .benchwork

``--mode plain`` is a timed repetition with no tracing; ``setup`` stops at
the end of set-up and reports only ``setup_s``; ``spans`` wraps the public
calls in :class:`tracing.Tracer`; ``profile`` adds a cProfile pass.  The
last line of standard output is one JSON object: the workload's ops,
failures, counters and model outputs, plus set-up, wall, CPU and peak RSS.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args: argparse.Namespace) -> dict:
    clock = workloads.Clock(args.spawn_t, setup_only=args.mode == "setup")
    if clock.setup_only:
        try:
            workloads.RUNNERS[args.workload](args.seed, clock, size=args.size,
                                             jobs=args.jobs, workdir=args.workdir)
        except workloads.SetupOnly:
            return {"mode": args.mode, **clock.times()}
        raise RuntimeError("the workload never reached the end of set-up")
    tracer = tracing.Tracer().install() if args.mode != "plain" else None
    profiler = cProfile.Profile() if args.mode == "profile" else None
    kwargs = dict(size=args.size, jobs=args.jobs, workdir=args.workdir)
    if profiler is not None:
        profiler.enable()
    try:
        outcome = workloads.RUNNERS[args.workload](args.seed, clock, **kwargs)
    finally:
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.uninstall()
    outcome.update(clock.times())
    outcome["peak_rss_mb"] = peak_rss_mb()
    outcome["mode"] = args.mode
    if profiler is not None:
        outcome["profile"] = tracing.fold_profile(profiler, os.path.join(SRC, "repro"))
    if tracer is not None:
        outcome["trace"] = trace_summary(tracer)
        tracer.dump(
            os.path.join(args.workdir, "trace",
                         f"{args.workload}-seed{args.seed}-{args.mode}.json"),
            {"workload": args.workload, "seed": args.seed, "mode": args.mode,
             "profile": outcome.get("profile")},
        )
    return outcome


def trace_summary(tracer: tracing.Tracer) -> dict:
    spec_s = tracer.durations("RunSpec.execute")
    return {
        "events": tracer.events,
        "sim_ps": tracer.sim_ps,
        "pending_at_run_end": tracer.pending_at_run_end,
        "run_s": tracer.total_s["EventList.run"],
        "build_s": tracer.outermost_s(tracing.BUILD_SPANS),
        "spec_s": spec_s,
        "cache_get_s": tracer.total_s["ResultCache.get"],
        "cache_put_s": tracer.total_s["ResultCache.put_encoded"],
        "plan_s": tracer.total_s["Plan.build"],
        "assemble_s": tracer.total_s["Plan.assemble"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "setup", "spans", "profile"),
                        default="plain")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--spawn-t", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    outcome = run(args)
    sys.stdout.write(json.dumps(outcome) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
