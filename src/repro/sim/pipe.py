"""Fixed-delay propagation links.

A :class:`Pipe` models the propagation delay of a cable (plus any fixed
per-hop switching latency the experimenter wants to fold in).  Pipes never
drop, reorder or serialize packets — serialization happens in the queue that
precedes the pipe — so an arbitrary number of packets can be "in flight" on a
pipe at once.
"""

from __future__ import annotations

from bisect import insort as _insort
from heapq import heappush as _heappush

from repro.sim.eventlist import _WHEEL_MASK, _WHEEL_SHIFT, _WHEEL_SLOTS, EventList
from repro.sim.network import PacketSink
from repro.sim.packet import Packet


class Pipe(PacketSink):
    """A link with fixed one-way propagation delay."""

    __slots__ = ("eventlist", "delay_ps", "name", "packets_carried", "bytes_carried")

    def __init__(self, eventlist: EventList, delay_ps: int, name: str = "pipe") -> None:
        if delay_ps < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay_ps}")
        self.eventlist = eventlist
        self.delay_ps = delay_ps
        self.name = name
        self.packets_carried = 0
        self.bytes_carried = 0

    def set_delay_ps(self, delay_ps: int) -> None:
        """Change the propagation delay (cable swap / reroute mid-run).

        Packets already in flight keep the delay they departed with; only
        subsequent arrivals see the new value.
        """
        if delay_ps < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay_ps}")
        self.delay_ps = delay_ps

    def receive_packet(self, packet: Packet) -> None:
        """Deliver *packet* to its next hop after the propagation delay."""
        self.packets_carried += 1
        self.bytes_carried += packet.size
        # Raw scheduler entry, inlined (the EventList._insert fast path): a
        # delivery is never cancelled and delay_ps >= 0, so neither the guard
        # nor an Event handle — nor even the call frame — is worth paying on
        # the busiest per-packet path in the simulator.  The hop pointer is
        # advanced now (the route cannot change in flight), so the delivery
        # event calls the downstream element directly.
        hop = packet.hop
        sink = packet.route.elements[hop]
        packet.hop = hop + 1
        eventlist = self.eventlist
        when = eventlist._now + self.delay_ps
        seq = eventlist._sequence = eventlist._sequence + 1
        # raw entry of arity 1: the packet is the callback's sole argument,
        # so no argument tuple is ever allocated for a delivery
        entry = [when, seq, None, 1, sink.receive_packet, packet]
        delta = (when >> _WHEEL_SHIFT) - eventlist._cursor
        if delta <= 0:
            _insort(eventlist._cur_spill, entry)
            eventlist._wheel_count += 1
        elif delta < _WHEEL_SLOTS:
            eventlist._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
            eventlist._wheel_count += 1
        else:
            _heappush(eventlist._far, entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipe({self.name}, {self.delay_ps} ps)"


class TappedPipe(Pipe):
    """A pipe with a per-packet fault tap (see :mod:`repro.sim.faults`).

    ``tap`` is called with each arriving packet and returns a
    ``(verdict, extra_delay_ps)`` pair — the contract of
    :meth:`repro.sim.faults.FaultInjector.inspect`.  Deliberately a distinct
    type from :class:`Pipe`: the queues' fused forwarding fast path only
    triggers on ``type(next) is Pipe``, so a tapped pipe always receives the
    virtual :meth:`receive_packet` call.  Passed packets take exactly the
    same scheduling path as an untapped pipe, so installing a tap that
    matches nothing leaves a seeded run bit-identical.
    """

    __slots__ = ("tap", "packets_dropped", "packets_delayed")

    def __init__(self, eventlist: EventList, delay_ps: int, tap, name: str = "tapped-pipe") -> None:
        super().__init__(eventlist, delay_ps, name=name)
        self.tap = tap
        self.packets_dropped = 0
        self.packets_delayed = 0

    def receive_packet(self, packet: Packet) -> None:
        verdict, extra_ps = self.tap(packet)
        if verdict == "drop":
            self.packets_dropped += 1
            return
        if verdict == "delay":
            self.packets_delayed += 1
            self.packets_carried += 1
            self.bytes_carried += packet.size
            hop = packet.hop
            sink = packet.route.elements[hop]
            packet.hop = hop + 1
            self.eventlist.schedule_raw_in(
                self.delay_ps + extra_ps, sink.receive_packet, (packet,)
            )
            return
        Pipe.receive_packet(self, packet)
