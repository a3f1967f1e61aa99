"""The scheduler-stress scenarios the perf trajectory is measured on.

* ``run_permutation`` — a 128-host fat-tree permutation (Figure 14's shape):
  every host sends to exactly one other host, so every link is busy and the
  event list is dominated by steady-state serialization/propagation events.
* ``run_incast`` — a 432-flow incast into one receiver (Figure 16/20's
  shape): the first-RTT burst trims thousands of packets, the pull pacer
  serializes the retransmissions, and historically every data packet armed
  an RTO timer that lingered in the heap, making this the scheduler's
  worst case.
* ``run_transport_matrix`` — one seeded 8-sender incast per transport in
  the registry (NDP, TCP, DCTCP, MPTCP, DCQCN, pHost), so the bake-off
  matrix has a timing and behaviour-digest trail: a change to the shared
  simulation core that silently alters *any* protocol's packet-level
  behaviour shows up as a digest mismatch here.

All scenarios are fully seeded.  Besides timing, each run produces a SHA-256
digest of every flow record and the switch trim counters, so a scheduler
change can be checked for bit-identical protocol behaviour (the acceptance
bar for the fast-path rework).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import NdpConfig
from repro.core.switch import NdpSwitchQueue
from repro.harness.experiment import start_incast, start_permutation
from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry

#: events executed per chunk between pending-queue size samples
_CHUNK_EVENTS = 20_000

#: how many times each scenario is repeated; the fastest repetition is
#: reported (best-of-N filters out scheduler noise on shared machines; the
#: simulation itself is deterministic, so every repetition must produce the
#: same digest)
DEFAULT_REPEATS = 5


@dataclass
class PerfResult:
    """Outcome of one timed scenario run."""

    scenario: str
    wall_seconds: float
    events_executed: int
    peak_pending_events: int
    completed_flows: int
    total_flows: int
    final_time_ps: int
    flow_digest: str
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_executed": self.events_executed,
            "events_per_second": round(self.events_per_second, 1),
            "peak_pending_events": self.peak_pending_events,
            "completed_flows": self.completed_flows,
            "total_flows": self.total_flows,
            "final_time_ps": self.final_time_ps,
            "flow_digest": self.flow_digest,
            **self.extra,
        }


def _record_tuple(record) -> tuple:
    return (
        record.flow_id,
        record.src,
        record.dst,
        record.flow_size_bytes,
        record.start_time_ps,
        record.finish_time_ps,
        record.bytes_delivered,
        record.packets_delivered,
        record.headers_received,
        record.retransmissions,
        record.rtx_from_nack,
        record.rtx_from_bounce,
        record.rtx_from_timeout,
    )


def flow_digest(network: NdpNetwork) -> str:
    """SHA-256 over every flow record (both ends) and per-switch trim counters."""
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    for queue in network.topology.all_queues():
        if isinstance(queue, NdpSwitchQueue):
            hasher.update(
                f"{queue.name}:{queue.trimmed_arriving}:{queue.trimmed_from_tail}".encode()
            )
    return hasher.hexdigest()


def _timed_run(eventlist: EventList, flows, until_ps: int) -> tuple:
    """Run until every flow completes (or *until_ps*), sampling the pending queue.

    Chunks of ``max_events`` are used (rather than ``until``) so the loop can
    sample :meth:`EventList.pending_events` for the peak-heap metric; the
    stop point is deterministic because the chunk size is fixed.
    """
    peak_pending = eventlist.pending_events()
    start_events = eventlist.events_executed
    wall_start = time.perf_counter()
    while True:
        before = eventlist.events_executed
        eventlist.run(max_events=_CHUNK_EVENTS)
        peak_pending = max(peak_pending, eventlist.pending_events())
        if eventlist.events_executed == before:
            break  # quiescent
        if eventlist.now() >= until_ps:
            break  # safety horizon (a stuck run should not spin forever)
        if all(flow.complete for flow in flows):
            break
    wall = time.perf_counter() - wall_start
    return wall, eventlist.events_executed - start_events, peak_pending


def _best_of(runner, repeats: int) -> PerfResult:
    """Run *runner* repeatedly; return the fastest, checking determinism."""
    best: PerfResult = runner()
    for _ in range(repeats - 1):
        result = runner()
        if result.flow_digest != best.flow_digest:
            raise AssertionError(
                f"{result.scenario}: non-deterministic digest across repetitions"
            )
        if result.wall_seconds < best.wall_seconds:
            best = result
    return best


def run_permutation(seed: int = 1, repeats: int = DEFAULT_REPEATS) -> PerfResult:
    """128-host fat-tree permutation, 180 kB per flow, run to completion."""

    def once() -> PerfResult:
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=8
        )
        import random

        flows = start_permutation(
            network, flow_size_bytes=180_000, rng=random.Random(seed)
        )
        wall, events, peak = _timed_run(eventlist, flows, until_ps=20_000_000_000)
        return PerfResult(
            scenario="permutation_k8_180kB",
            wall_seconds=wall,
            events_executed=events,
            peak_pending_events=peak,
            completed_flows=sum(1 for f in flows if f.complete),
            total_flows=len(flows),
            final_time_ps=eventlist.now(),
            flow_digest=flow_digest(network),
        )

    return _best_of(once, repeats)


def run_incast(seed: int = 1, repeats: int = DEFAULT_REPEATS) -> PerfResult:
    """432 synchronized senders, 90 kB each, into one leaf-spine receiver."""

    def once() -> PerfResult:
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist,
            LeafSpineTopology,
            config=NdpConfig(),
            seed=seed,
            leaves=28,
            spines=8,
            hosts_per_leaf=16,
        )
        receiver = 0
        senders = [h for h in network.topology.hosts() if h != receiver][:432]
        flows = start_incast(network, receiver, senders, bytes_per_sender=90_000)
        wall, events, peak = _timed_run(eventlist, flows, until_ps=60_000_000_000)
        return PerfResult(
            scenario="incast_432x90kB",
            wall_seconds=wall,
            events_executed=events,
            peak_pending_events=peak,
            completed_flows=sum(1 for f in flows if f.complete),
            total_flows=len(flows),
            final_time_ps=eventlist.now(),
            flow_digest=flow_digest(network),
        )

    return _best_of(once, repeats)


def generic_flow_digest(network) -> str:
    """Transport-agnostic digest: flow records plus fabric loss counters.

    Works for every ``*Network`` in the registry: receiver records always
    exist; sender-side records are hashed when the flow handle exposes them
    (MPTCP's subflow bundle does not).
    """
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        sender = getattr(flow, "sender_record", None)
        if sender is not None:
            hasher.update(repr(_record_tuple(sender)).encode())
    hasher.update(
        f"trimmed={network.topology.total_trimmed()}:"
        f"dropped={network.topology.total_dropped()}".encode()
    )
    return hasher.hexdigest()


def run_transport_matrix(seed: int = 1, repeats: int = 3) -> PerfResult:
    """One 8-sender, 45 kB incast per registered transport on a 9-host star.

    The aggregate digest chains every transport's behaviour digest, so a
    core change that perturbs any protocol — not just NDP — breaks the
    match; per-transport digests and event counts land in ``extra``.
    """

    def once() -> PerfResult:
        wall_total = 0.0
        events_total = 0
        peak_overall = 0
        completed = total = 0
        final_time = 0
        extra: Dict[str, float] = {}
        hasher = hashlib.sha256()
        for spec in registry.specs():
            eventlist = EventList()
            network = spec.build(eventlist, SingleSwitchTopology, seed=seed, hosts=9)
            flows = start_incast(network, 0, list(range(1, 9)), bytes_per_sender=45_000)
            wall, events, peak = _timed_run(eventlist, flows, until_ps=60_000_000_000)
            digest = generic_flow_digest(network)
            hasher.update(f"{spec.display}:{digest}".encode())
            wall_total += wall
            events_total += events
            peak_overall = max(peak_overall, peak)
            completed += sum(1 for f in flows if f.complete)
            total += len(flows)
            final_time = max(final_time, eventlist.now())
            extra[f"events_{spec.name}"] = events
            extra[f"digest_{spec.name}"] = digest
        return PerfResult(
            scenario="transport_matrix_8x45kB",
            wall_seconds=wall_total,
            events_executed=events_total,
            peak_pending_events=peak_overall,
            completed_flows=completed,
            total_flows=total,
            final_time_ps=final_time,
            flow_digest=hasher.hexdigest(),
            extra=extra,
        )

    return _best_of(once, repeats)


SCENARIOS = {
    "permutation": run_permutation,
    "incast": run_incast,
    "transport_matrix": run_transport_matrix,
}
