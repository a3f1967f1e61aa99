"""Base packet and route abstractions.

A :class:`Packet` is the unit moved around by the simulator.  It carries an
explicit :class:`Route` — an ordered list of :class:`~repro.sim.network.PacketSink`
elements (queues, pipes and finally the destination endpoint) — which the
sending host chooses.  This models source routing, the mechanism NDP uses to
spread the packets of a single flow over every available path of a Clos
topology (see §3.1.1 of the paper).

Protocol packages subclass :class:`Packet` (``NdpDataPacket``, ``TcpPacket``,
…) to add protocol fields; the switch and link code only relies on the base
attributes defined here (size, priority, ECN bits, trimming support).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.sim.units import HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.network import PacketSink


class PacketPriority(enum.IntEnum):
    """Queueing priority of a packet inside an NDP switch.

    ``HIGH`` is used by trimmed headers and by control packets (ACK, NACK,
    PULL); ``LOW`` by full data packets.
    """

    LOW = 0
    HIGH = 1


class Route:
    """An ordered list of network elements a packet traverses.

    Routes are immutable once built; topologies construct one forward route
    and one reverse route per (source, destination, path) triple and the
    protocol endpoints reuse them for every packet.
    """

    __slots__ = ("elements", "path_id", "reverse")

    def __init__(
        self,
        elements: Sequence["PacketSink"],
        path_id: int = 0,
        reverse: Optional["Route"] = None,
    ) -> None:
        self.elements: tuple["PacketSink", ...] = tuple(elements)
        self.path_id = path_id
        self.reverse = reverse

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterable["PacketSink"]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> "PacketSink":
        return self.elements[index]

    def destination(self) -> "PacketSink":
        """The final element of the route (normally a protocol endpoint)."""
        return self.elements[-1]

    def extended(self, *extra: "PacketSink") -> "Route":
        """Return a new route with *extra* elements appended."""
        return Route(self.elements + tuple(extra), path_id=self.path_id, reverse=self.reverse)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [getattr(e, "name", e.__class__.__name__) for e in self.elements]
        return f"Route(path={self.path_id}, {' -> '.join(names)})"


class Packet:
    """Base class for every packet in the simulator.

    Attributes
    ----------
    flow_id:
        Identifier of the flow (connection) the packet belongs to.
    src, dst:
        Host identifiers; purely informational for the simulator core, used
        by protocol endpoints and loggers.
    size:
        Current on-the-wire size in bytes.  Trimming a packet reduces this to
        the header size while remembering :attr:`original_size`.
    priority:
        Queueing priority at NDP switches.
    ecn_capable / ecn_ce:
        ECN support and Congestion-Experienced mark (used by DCTCP/DCQCN).
    path_id:
        Index of the path the sender chose for this packet, used by the NDP
        path scoreboard.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "original_size",
        "seqno",
        "route",
        "hop",
        "priority",
        "is_header_only",
        "bounced",
        "ecn_capable",
        "ecn_ce",
        "path_id",
        "send_time",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        seqno: int = 0,
        route: Optional[Route] = None,
        priority: PacketPriority = PacketPriority.LOW,
        ecn_capable: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.original_size = size
        self.seqno = seqno
        self.route = route
        self.hop = 0
        self.priority = priority
        self.is_header_only = False
        self.bounced = False
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.path_id = route.path_id if route is not None else 0
        self.send_time: int = 0

    # --- forwarding ---------------------------------------------------------

    def set_route(self, route: Route) -> None:
        """Attach *route* and reset the hop pointer to its first element."""
        self.route = route
        self.hop = 0
        self.path_id = route.path_id

    def send_to_next_hop(self) -> None:
        """Deliver the packet to the next element on its route."""
        route = self.route
        if route is None:
            raise RuntimeError("packet has no route")
        hop = self.hop
        try:
            sink = route.elements[hop]  # direct tuple access: once per hop
        except IndexError:
            raise RuntimeError(
                f"packet {self!r} ran off the end of its route (hop {self.hop})"
            ) from None
        self.hop = hop + 1
        sink.receive_packet(self)

    def remaining_hops(self) -> int:
        """Number of elements left on the route (including the destination)."""
        if self.route is None:
            return 0
        return len(self.route) - self.hop

    # --- switch operations ---------------------------------------------------

    def trim(self, header_bytes: int = HEADER_BYTES) -> None:
        """Trim the payload, leaving only the header (NDP/CP switches).

        Trimmed packets are promoted to high priority — they travel in the
        switch header queue — and remember the original payload size so the
        receiver can account for the data that was cut.
        """
        if not self.is_header_only:
            self.original_size = self.size
        self.size = header_bytes
        self.is_header_only = True
        self.priority = PacketPriority.HIGH

    def mark_ecn(self) -> None:
        """Set the ECN Congestion-Experienced codepoint if ECN-capable."""
        if self.ecn_capable:
            self.ecn_ce = True

    def is_control(self) -> bool:
        """True for pure control packets (ACK/NACK/PULL); overridden by subclasses."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.__class__.__name__
        extra = " hdr" if self.is_header_only else ""
        return (
            f"{kind}(flow={self.flow_id}, seq={self.seqno}, {self.src}->{self.dst},"
            f" {self.size}B{extra})"
        )
