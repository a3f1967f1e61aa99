"""Microbenchmarks of the simulator's per-packet primitives.

The scenario benchmarks (:mod:`benchmarks.perf.scenarios`) time whole
seeded runs, which is the number that matters — but a 5% regression in one
primitive drowns in scenario noise.  These micros time each hot primitive
of the scheduler and the queues in isolation, with deterministic digests
over their structural counters, so ``tools/check_perf.py`` can gate them like
any other scenario row:

* ``micro_raw_entry`` — raw-entry schedule/dispatch round-trips through
  :class:`~repro.sim.eventlist.EventList`: self-rescheduling arity-0
  callbacks at staggered periods, the shape of every recurring service.
* ``micro_queue_drain_batched`` / ``micro_queue_drain_singleton`` — a
  drop-tail port draining back-to-back bursts.  With small packets,
  consecutive completions land in the same timing-wheel slot and the
  queue's fast-forward drain services them inline (the batched path);
  oversized packets serialize longer than a wheel slot, so every
  completion is its own scheduler dispatch (the singleton path).  Timing
  both pins the batching win *and* the non-batched baseline.

Every micro is fully deterministic: the digest hashes the run's structural
counters (dispatches, packets, bytes, final clock), so any change to
the primitives' observable behaviour — not just their speed — breaks the
baseline match.
"""

from __future__ import annotations

import hashlib
import time

from benchmarks.perf.scenarios import PerfResult, _best_of
from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList
from repro.sim.packet import Packet, Route
from repro.sim.queues import DropTailQueue
from repro.sim.units import HEADER_BYTES

#: repetitions per micro (best run wins, digests must agree)
MICRO_REPEATS = 3

#: raw-entry schedule/dispatch round-trips timed by ``micro_raw_entry``
_RAW_EVENTS = 200_000
#: concurrently armed tickers (pending-entry working set)
_RAW_TICKERS = 64

#: packets per burst and bursts per run for the queue-drain micros
_DRAIN_BURST = 256
_DRAIN_BURSTS = 200
#: 10 Gbps port, buffer large enough that nothing drops
_DRAIN_RATE_BPS = 10_000_000_000
#: small enough that serialization (~0.4 µs) fits an 8.4 µs wheel slot
#: ~20 times over: the fast-forward drain engages and completions batch
_DRAIN_SMALL_BYTES = 500
#: oversized: serialization (~9.6 µs) exceeds the slot, so every
#: completion is its own scheduler dispatch (9 kB MTU packets, at 7.2 µs,
#: would still batch — the singleton path needs to overshoot the slot)
_DRAIN_OVERSIZE_BYTES = 12_000


def _digest(*counters: int) -> str:
    return hashlib.sha256(repr(counters).encode()).hexdigest()


class _Ticker:
    """A self-rescheduling arity-0 raw callback (a recurring service's shape)."""

    __slots__ = ("eventlist", "period_ps", "remaining", "fired")

    def __init__(self, eventlist: EventList, period_ps: int, budget: int) -> None:
        self.eventlist = eventlist
        self.period_ps = period_ps
        self.remaining = budget
        self.fired = 0

    def tick(self) -> None:
        self.fired += 1
        if self.remaining:
            self.remaining -= 1
            self.eventlist.schedule_raw_in(self.period_ps, self.tick)


def run_raw_entry(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Raw-entry schedule/dispatch round-trips at staggered periods."""

    def once() -> PerfResult:
        eventlist = EventList()
        budget = _RAW_EVENTS // _RAW_TICKERS - 1
        tickers = [
            # staggered sub-slot periods: entries spread over wheel slots
            # and spill/batch orders exactly like real recurring services
            _Ticker(eventlist, 900 + 37 * index, budget)
            for index in range(_RAW_TICKERS)
        ]
        for ticker in tickers:
            eventlist.schedule_raw_in(ticker.period_ps, ticker.tick)
        wall_start = time.perf_counter()
        eventlist.run()
        wall = time.perf_counter() - wall_start
        fired = sum(ticker.fired for ticker in tickers)
        return PerfResult(
            scenario="micro_raw_entry",
            wall_seconds=wall,
            events_executed=eventlist.events_executed,
            peak_pending_events=_RAW_TICKERS,
            completed_flows=0,
            total_flows=0,
            final_time_ps=eventlist.now(),
            flow_digest=_digest(
                fired, eventlist.events_executed, eventlist.now(),
            ),
        )

    return _best_of(once, repeats)


class _CountingSink:
    """Terminal route element: counts what arrives (cf. NdpSink)."""

    __slots__ = ("received", "bytes")

    def __init__(self) -> None:
        self.received = 0
        self.bytes = 0

    def receive_packet(self, packet: Packet) -> None:
        self.received += 1
        self.bytes += packet.size


def _run_queue_drain(scenario: str, packet_bytes: int, repeats: int) -> PerfResult:
    def once() -> PerfResult:
        eventlist = EventList()
        sink = _CountingSink()
        queue = DropTailQueue(
            eventlist,
            service_rate_bps=_DRAIN_RATE_BPS,
            max_queue_bytes=_DRAIN_BURST * packet_bytes + packet_bytes,
            name="micro-drain",
        )
        route = Route([queue, sink])
        payload = packet_bytes - HEADER_BYTES
        start_events = eventlist.events_executed
        peak_pending = 0
        wall_start = time.perf_counter()
        for burst in range(_DRAIN_BURSTS):
            for index in range(_DRAIN_BURST):
                packet = NdpDataPacket(1, 0, 1, index, payload)
                packet.route = route
                packet.hop = 1  # next element after the queue: the sink
                queue.receive_packet(packet)
            pending = eventlist.pending_events()
            if pending > peak_pending:
                peak_pending = pending
            eventlist.run()
        wall = time.perf_counter() - wall_start
        return PerfResult(
            scenario=scenario,
            wall_seconds=wall,
            events_executed=eventlist.events_executed - start_events,
            peak_pending_events=peak_pending,
            completed_flows=0,
            total_flows=0,
            final_time_ps=eventlist.now(),
            flow_digest=_digest(
                sink.received, sink.bytes, queue.stats.packets_forwarded,
                queue.stats.packets_dropped, eventlist.events_executed,
                eventlist.now(),
            ),
        )

    return _best_of(once, repeats)


def run_queue_drain_batched(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Back-to-back small packets: the fast-forward drain batches them."""
    return _run_queue_drain("micro_queue_drain_batched", _DRAIN_SMALL_BYTES, repeats)


def run_queue_drain_singleton(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Oversized packets: one scheduler dispatch per completion, no batching."""
    return _run_queue_drain("micro_queue_drain_singleton", _DRAIN_OVERSIZE_BYTES, repeats)


#: scenario name -> runner, merged into the perf harness by ``run_perf.py``
MICRO_SCENARIOS = {
    "micro_raw_entry": run_raw_entry,
    "micro_queue_drain_batched": run_queue_drain_batched,
    "micro_queue_drain_singleton": run_queue_drain_singleton,
}
