"""The three benchmark workloads, each driven only through repro's public calls.

* ``ndp_incast`` — 432 NDP senders x 450 kB into one receiver of a 28x16
  leaf-spine with 8 spines, run to completion (Figures 16/20).  Trimming,
  the header queue, pull pacing and NACK/bounce retransmission do the work.
* ``baseline_fct`` — the Figure 15 shape on a k=4 fat-tree for DCTCP, MPTCP
  and DCQCN: every host but two runs two long background flows, then 90 kB
  probes run one after another between two cross-pod hosts, each in a fixed
  simulated slot that is also its deadline.  Baseline transports, their
  timers and the drop-tail/ECN/PFC queues do the work.

In both simulations the seed picks a symmetry of the fabric
(:func:`host_symmetry`) that decides which physical hosts play each role of
the published scenario, so every seed does nearly the same simulated work
and the run-to-run spread measures the program and the machine.
* ``figures_sweep`` — the CLI batch ``repro.cli <families> --jobs 2`` run
  against a fresh result cache, then again against the now-warm cache.
  Plan building, the fork pool, the result codec, the cache and assembly do
  the work.

Every workload function takes a :class:`Clock` and calls
``clock.setup_done()`` right before its first ``EventList.run`` /
``run_specs`` call and ``clock.work_done()`` when its fixed work is over; it
returns a plain dict (ops, failures, counters, model outputs) that the rep
process serialises.  Each *op* is one flow, probe or spec result with a
digest of its outcome, so repeats can be compared op by op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from repro import cli
from repro.core.config import NdpConfig
from repro.harness import experiment, sweep
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.transports import registry

import tracing

INCAST_SIZES = {
    "full": dict(leaves=28, spines=8, hosts_per_leaf=16, senders=432,
                 bytes_per_sender=450_000, deadline_ps=units.seconds(1)),
    "tiny": dict(leaves=4, spines=2, hosts_per_leaf=4, senders=8,
                 bytes_per_sender=45_000, deadline_ps=units.milliseconds(50)),
}

FCT_SIZES = {
    "full": dict(k=4, protocols=("dctcp", "mptcp", "dcqcn"),
                 background_bytes=50_000_000, background_flows_per_host=2,
                 warmup_ps=units.milliseconds(1), probes=2, probe_bytes=90_000,
                 deadline_ps=units.milliseconds(2)),
    "tiny": dict(k=4, protocols=("dctcp", "mptcp", "dcqcn"),
                 background_bytes=50_000_000, background_flows_per_host=2,
                 warmup_ps=units.microseconds(100), probes=1, probe_bytes=90_000,
                 deadline_ps=units.microseconds(500)),
}

#: fixed seeds of the fabrics' random streams: the published scenarios'
FABRIC_SEED = {"ndp_incast": 1, "baseline_fct": 5}

SWEEP_SIZES = {
    "full": ("fig9", "fig10", "fig11", "fig13", "fig16", "fig20", "phost",
             "uplinks", "failures_klinks", "fig14", "fig19"),
    "tiny": ("fig12", "failures_klinks"),
}


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class SetupOnly(BaseException):
    """Ends a set-up-only repetition at the end of set-up.

    A ``BaseException``, so that no ``except Exception`` on the way out of
    repro's own code swallows it.
    """


class Clock:
    """Marks the end of set-up and of the fixed work, on wall and CPU clocks.

    ``spawn_t`` is the parent's ``time.perf_counter()`` just before it
    started this process; on Linux that clock is system-wide, so set-up time
    includes interpreter start and ``import repro``.  With ``setup_only``
    the workload stops at the end of set-up (:class:`SetupOnly`).
    """

    def __init__(self, spawn_t: Optional[float] = None, setup_only: bool = False) -> None:
        self.spawn_t = time.perf_counter() if spawn_t is None else spawn_t
        self.setup_only = setup_only
        self.setup_t: Optional[float] = None
        self.setup_cpu = 0.0
        self.end_t: Optional[float] = None
        self.end_cpu = 0.0

    def setup_done(self) -> None:
        if self.setup_t is None:
            self.setup_t = time.perf_counter()
            self.setup_cpu = cpu_seconds()
            if self.setup_only:
                raise SetupOnly

    def work_done(self) -> None:
        self.end_t = time.perf_counter()
        self.end_cpu = cpu_seconds()

    def times(self) -> Dict[str, float]:
        if self.end_t is None:
            return {"setup_s": self.setup_t - self.spawn_t}
        return {
            "setup_s": self.setup_t - self.spawn_t,
            "wall_s": self.end_t - self.setup_t,
            "cpu_s": self.end_cpu - self.setup_cpu,
        }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record_tuple(record) -> tuple:
    return (
        record.flow_id, record.src, record.dst, record.flow_size_bytes,
        record.start_time_ps, record.finish_time_ps, record.bytes_delivered,
        record.packets_delivered, record.retransmissions,
    )


def _flow_op(name: str, flow) -> Dict[str, str]:
    parts = [repr(_record_tuple(flow.record))]
    sender = getattr(flow, "sender_record", None)
    if sender is not None:
        parts.append(repr(_record_tuple(sender)))
    return {"id": name, "digest": _digest("|".join(parts))}


def _bytes_mismatches(flows) -> int:
    """Completed flows whose delivered byte count is not the flow size."""
    return sum(
        1 for flow in flows
        if flow.complete and flow.record.bytes_delivered != flow.record.flow_size_bytes
    )


def _queue_counters(networks) -> Dict[str, int]:
    drops = forwarded = trimmed = 0
    for network in networks:
        for queue in network.topology.all_queues():
            drops += queue.stats.packets_dropped
            forwarded += queue.stats.packets_forwarded
            trimmed += queue.stats.packets_trimmed
    return {"drops": drops, "packets_forwarded": forwarded, "trimmed": trimmed}


def _result(ops, failures, counters, model) -> Dict[str, Any]:
    digest = _digest("".join(op["digest"] for op in ops))
    return {"ops": ops, "failures": failures, "counters": counters,
            "model": model, "digest": digest}


def host_symmetry(seed: int, levels: List[int]) -> List[int]:
    """A seeded symmetry of a host hierarchy, as ``mapping[host] -> host``.

    Hosts are numbered in mixed radix over *levels* (outermost first, e.g.
    pods, ToRs, hosts per ToR).  The children of every parent are shuffled
    independently, which maps the fabric onto itself: every path keeps its
    index, so a relabelled experiment does (nearly) the same simulated work.
    """
    rng = random.Random(seed)
    mapping = [0]
    for size in levels:
        mapping = [base * size + child for base in mapping
                   for child in rng.sample(range(size), size)]
    return mapping


def ndp_incast(seed: int, clock: Clock, size: str = "full", **_ignored) -> Dict[str, Any]:
    """NDP incast into host 0 from hosts 1..N, relabelled by the seed.

    The fabric's own random streams use the fixed seed of the published
    incast scenario; ``seed`` picks a leaf-spine symmetry that decides
    which physical hosts receive and send.
    """
    p = INCAST_SIZES[size]
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, LeafSpineTopology, config=NdpConfig(), seed=FABRIC_SEED["ndp_incast"],
        leaves=p["leaves"], spines=p["spines"], hosts_per_leaf=p["hosts_per_leaf"],
    )
    relabel = host_symmetry(seed, [p["leaves"], p["hosts_per_leaf"]])
    senders = [relabel[h] for h in range(1, p["senders"] + 1)]
    flows = experiment.start_incast(network, relabel[0], senders, p["bytes_per_sender"])
    clock.setup_done()
    experiment.run_until_complete(network, flows, p["deadline_ps"])
    clock.work_done()

    ops = [_flow_op(f"flow{flow.flow_id}", flow) for flow in flows]
    failures = {
        "deadline_missed": sum(1 for flow in flows if not flow.complete),
        "bytes_mismatch": _bytes_mismatches(flows),
    }
    senders_records = [flow.sender_record for flow in flows]
    delivered = sum(flow.record.packets_delivered for flow in flows)
    retransmitted = sum(r.retransmissions for r in senders_records)
    counters = {
        "events": eventlist.events_executed,
        "packets_delivered": delivered,
        "rtx_nack": sum(r.rtx_from_nack for r in senders_records),
        "rtx_bounce": sum(r.rtx_from_bounce for r in senders_records),
        "rtx_timeout": sum(r.rtx_from_timeout for r in senders_records),
        "useful_ratio": delivered / (delivered + retransmitted) if delivered else 0.0,
        **_queue_counters([network]),
    }
    done = [flow.record.completion_time_ps() for flow in flows if flow.complete]
    model = {
        "sim_ms": eventlist.now() / units.MILLISECOND,
        "incast_last_fct_ms": max(done) / units.MILLISECOND if done else 0.0,
    }
    return _result(ops, failures, counters, model)


def baseline_fct(
    seed: int, clock: Clock, size: str = "full",
    deadline_ps: Optional[int] = None, **_ignored,
) -> Dict[str, Any]:
    """Figure 15 probes under background load, one network per transport.

    The background pattern and the fabric's random streams are Figure 15's
    published ones (seed 5); ``seed`` picks a fat-tree symmetry (pods, ToRs
    within a pod, hosts within a ToR) that decides which physical hosts play
    each role, so every seed does nearly the same simulated work.

    Every network (and its background flows) is built before the first
    ``EventList.run``, so set-up covers all three builds.  Each probe owns a
    fixed slot of ``deadline_ps`` simulated time: the run always advances to
    the slot's end, so a run's simulated work does not depend on how fast
    its probes finish, and a probe not complete at the slot end failed.
    """
    p = FCT_SIZES[size]
    deadline = p["deadline_ps"] if deadline_ps is None else deadline_ps
    k = p["k"]
    relabel = host_symmetry(seed, [k, k // 2, k // 2])
    built = []
    for protocol in p["protocols"]:
        eventlist = EventList()
        network = registry.build_network(
            protocol, eventlist, FatTreeTopology, k=k, seed=FABRIC_SEED["baseline_fct"]
        )
        rng = random.Random(FABRIC_SEED["baseline_fct"])
        hosts = network.topology.hosts()
        probe_a, probe_b = hosts[0], hosts[-1]  # different pods
        for src in hosts:
            if src in (probe_a, probe_b):
                continue
            for _ in range(p["background_flows_per_host"]):
                dst = src
                while dst == src or dst in (probe_a, probe_b):
                    dst = rng.choice(hosts)
                network.create_flow(relabel[src], relabel[dst], p["background_bytes"])
        probe_a, probe_b = relabel[probe_a], relabel[probe_b]
        built.append((protocol, network, probe_a, probe_b))
    clock.setup_done()

    probes: Dict[str, list] = {}
    for protocol, network, probe_a, probe_b in built:
        eventlist = network.eventlist
        eventlist.run(until=p["warmup_ps"])
        probes[protocol] = []
        for index in range(p["probes"]):
            src, dst = (probe_a, probe_b) if index % 2 == 0 else (probe_b, probe_a)
            slot_start = p["warmup_ps"] + index * deadline
            flow = network.create_flow(src, dst, p["probe_bytes"], start_time_ps=slot_start)
            experiment.run_until_complete(
                network, [flow], slot_start + deadline - eventlist.now(),
                check_interval_ps=deadline,
            )
            probes[protocol].append(flow)
    clock.work_done()

    ops, failures, model = [], {"deadline_missed": 0, "bytes_mismatch": 0}, {}
    for protocol, network, _a, _b in built:
        flows = probes[protocol]
        ops.extend(_flow_op(f"{protocol}.probe{i}", f) for i, f in enumerate(flows))
        failures["deadline_missed"] += sum(1 for f in flows if not f.complete)
        failures["bytes_mismatch"] += _bytes_mismatches(network.flows)
        fcts = [f.record.completion_time_ps() / units.MICROSECOND
                for f in flows if f.complete]
        model[f"probe_fct_p50_us.{protocol}"] = statistics.median(fcts) if fcts else 0.0
        topology = network.topology
        model[f"nic_drops.{protocol}"] = sum(
            topology.host_nic_queue(h).stats.packets_dropped for h in topology.hosts()
        )
        probe_ids = {id(f) for f in flows}
        background = [f for f in network.flows if id(f) not in probe_ids]
        model[f"background_complete.{protocol}"] = sum(1 for f in background if f.complete)
        model[f"background_flows.{protocol}"] = len(background)
    networks = [network for _p, network, _a, _b in built]
    model["sim_ms"] = sum(n.eventlist.now() for n in networks) / units.MILLISECOND
    counters = {
        "events": sum(n.eventlist.events_executed for n in networks),
        "packets_delivered": sum(
            f.record.packets_delivered for n in networks for f in n.flows
        ),
        **_queue_counters(networks),
    }
    return _result(ops, failures, counters, model)


def _encoded_digest(experiment_name: str, value: Any) -> str:
    encoded = json.dumps(sweep.encode_result(value), sort_keys=True)
    return _digest(experiment_name + "\x00" + encoded)


class _RunSpecsHook:
    """Wraps ``sweep.run_specs`` to mark set-up end and capture each pass.

    ``repro.cli.main`` resolves ``sweep.run_specs`` at call time, so
    replacing the module attribute for the duration of the workload is
    enough; nothing in ``src/`` changes.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.passes: List[Dict[str, Any]] = []
        self._undo: Optional[Callable[[], None]] = None

    def __enter__(self) -> "_RunSpecsHook":
        self._undo = tracing.patch(sweep, "run_specs", self._hooked)
        return self

    def __exit__(self, *_exc) -> None:
        self._undo()

    def _hooked(self, original: Callable) -> Callable:
        def run_specs(specs, jobs=1, cache=sweep.USE_DEFAULT_CACHE, on_result=None):
            self.clock.setup_done()
            record: Dict[str, Any] = {"specs": list(specs), "results": None, "resolved": 0}
            self.passes.append(record)
            resolved = sweep.default_cache() if cache is sweep.USE_DEFAULT_CACHE else cache
            hits0, misses0 = (resolved.hits, resolved.misses) if resolved else (0, 0)

            def counting(spec, index, source):
                record["resolved"] += 1
                if on_result is not None:
                    on_result(spec, index, source)

            try:
                record["results"] = original(specs, jobs=jobs, cache=cache,
                                             on_result=counting)
                return record["results"]
            finally:
                if resolved is not None:
                    record["hits"] = resolved.hits - hits0
                    record["misses"] = resolved.misses - misses0

        return run_specs


def figures_sweep(
    seed: int, clock: Clock, size: str = "full", jobs: int = 2,
    workdir: str = ".", **_ignored,
) -> Dict[str, Any]:
    """``repro.cli <families> --jobs N -q`` cold, then warm, on a fresh cache.

    The families run at their published default seeds: this workload's
    inputs are the CLI batch users run, so ``seed`` does not change them.
    """
    del seed
    families = list(SWEEP_SIZES[size])
    argv = families + ["--jobs", str(jobs), "--quiet"]
    cache_dir = os.path.join(workdir, f"cache-{os.getpid()}")
    os.environ[sweep.CACHE_DIR_ENV] = cache_dir
    os.environ.pop(sweep.NO_CACHE_ENV, None)
    pass_walls = []
    try:
        with _RunSpecsHook(clock) as hook, contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                started = time.perf_counter()
                cli.main(argv)
                pass_walls.append(time.perf_counter() - started)
        clock.work_done()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    ops: List[Dict[str, str]] = []
    failures = {"spec_raised": 0, "warm_miss": 0, "cold_warm_mismatch": 0}
    digests: List[List[Optional[str]]] = []
    for label, record in zip(("cold", "warm"), hook.passes):
        specs, results = record["specs"], record["results"]
        if results is None:  # a spec raised: the unresolved specs failed
            failures["spec_raised"] += len(specs) - record["resolved"]
            pass_digests = [None] * len(specs)
        else:
            pass_digests = [_encoded_digest(s.experiment, r) for s, r in zip(specs, results)]
        digests.append(pass_digests)
        ops.extend(
            {"id": f"{label}:{spec.experiment}", "digest": digest or "raised"}
            for spec, digest in zip(specs, pass_digests)
        )
    if len(hook.passes) == 2:
        failures["warm_miss"] = hook.passes[1].get("misses", 0)
        cold, warm = digests
        failures["cold_warm_mismatch"] = sum(
            1 for a, b in zip(cold, warm) if a is not None and b is not None and a != b
        )
    counters = {
        "specs": len(hook.passes[0]["specs"]) if hook.passes else 0,
        "warm_hits": hook.passes[1].get("hits", 0) if len(hook.passes) == 2 else 0,
        "warm_pass_s": pass_walls[1] if len(pass_walls) == 2 else 0.0,
        "jobs": jobs,
    }
    return _result(ops, failures, counters, {})


RUNNERS = {
    "ndp_incast": ndp_incast,
    "baseline_fct": baseline_fct,
    "figures_sweep": figures_sweep,
}
