"""Deterministic fault injection for protocol-conformance testing.

Simulation-based protocol validation needs to drive a transport through
adversarial loss scenarios — "drop the last two PULLs of flow 3", "trim
every 5th data packet", "delay all ACKs by 2 ms" — and then assert
completion invariants.  The :class:`FaultInjector` provides that as a
first-class, fully seeded layer:

* **Rules** (:class:`FaultRule`) select packets by class (``"pull"``,
  ``"ack"``, ``"nack"``, ``"data"``, ``"header"``), flow id and/or an
  arbitrary predicate, optionally skipping the first *n* matches, acting on
  every *k*-th match, capping the number of injections, or acting with a
  seeded probability.  The first rule that claims a packet wins.
* **Taps** are the attachment points.  :meth:`FaultInjector.tap` wraps a
  delivery target (normally a protocol endpoint) in a :class:`FaultPoint`;
  :class:`~repro.sim.pipe.TappedPipe` and
  :class:`~repro.sim.queues.TappedQueue` put the same hook mid-fabric.

Determinism is a hard requirement: the injector must not perturb the event
schedule of packets it leaves alone.  A :class:`FaultPoint` therefore
forwards passed packets *synchronously* — no event is inserted, no sequence
number is consumed — so a run with an injector installed but no matching
rule is bit-for-bit identical to a run without one (the conformance suite
asserts exactly this).  Only faulted packets touch the scheduler: a delayed
packet costs one raw entry, a dropped packet none.  Probabilistic rules use
the injector's own seeded :class:`random.Random`, never the simulation RNGs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.eventlist import EventList
from repro.sim.network import PacketSink
from repro.sim.packet import Packet
from repro.sim.units import HEADER_BYTES

#: verdicts returned by :meth:`FaultInjector.inspect`
PASS = "pass"
DROP = "drop"
TRIM = "trim"
DELAY = "delay"

#: packet classes understood by rule matching
PACKET_CLASSES = ("data", "header", "pull", "ack", "nack", "control")

#: memo of control-packet type -> class name (type names never change)
_CONTROL_CLASS_CACHE: Dict[type, str] = {}


def classify(packet: Packet) -> str:
    """Map a packet to its fault class.

    Control packets are classified by type name (``"nack"`` before ``"ack"``
    — *NdpNack* contains the substring "ack"); data packets are ``"data"``
    until trimmed, ``"header"`` afterwards, so rules can target exactly the
    header-queue traffic.
    """
    if packet.is_control():
        kind = _CONTROL_CLASS_CACHE.get(type(packet))
        if kind is None:
            name = type(packet).__name__.lower()
            if "pull" in name:
                kind = "pull"
            elif "nack" in name:
                kind = "nack"
            elif "ack" in name:
                kind = "ack"
            else:
                kind = "control"
            _CONTROL_CLASS_CACHE[type(packet)] = kind
        return kind
    return "header" if packet.is_header_only else "data"


@dataclass
class FaultRule:
    """One fault-injection rule (see :class:`FaultInjector` for the API)."""

    action: str
    classes: Optional[frozenset] = None
    flow_id: Optional[int] = None
    predicate: Optional[Callable[[Packet], bool]] = None
    skip: int = 0
    every_kth: int = 1
    max_count: Optional[int] = None
    delay_ps: int = 0
    probability: float = 1.0
    #: packets that satisfied the selectors (before skip/every_kth gating)
    matched: int = 0
    #: faults actually injected by this rule
    injected: int = 0

    def __post_init__(self) -> None:
        if self.action not in (DROP, TRIM, DELAY):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.classes is not None:
            unknown = set(self.classes) - set(PACKET_CLASSES)
            if unknown:
                raise ValueError(f"unknown packet classes {sorted(unknown)}")
        if self.skip < 0:
            raise ValueError("skip must be non-negative")
        if self.every_kth < 1:
            raise ValueError("every_kth must be at least 1")
        if self.max_count is not None and self.max_count < 1:
            raise ValueError("max_count must be positive when given")
        if self.action == DELAY and self.delay_ps <= 0:
            raise ValueError("a delay rule needs a positive delay_ps")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")

    @property
    def exhausted(self) -> bool:
        """True once the rule injected its ``max_count`` faults."""
        return self.max_count is not None and self.injected >= self.max_count

    def claims(self, packet: Packet, packet_class: str, rng: random.Random) -> bool:
        """Decide (and count) whether this rule faults *packet*."""
        if self.exhausted:
            return False
        if self.action == TRIM and packet_class != "data":
            return False  # only untrimmed data can be trimmed; don't claim
        if self.classes is not None and packet_class not in self.classes:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        if self.predicate is not None and not self.predicate(packet):
            return False
        matched = self.matched = self.matched + 1
        if matched <= self.skip:
            return False
        if (matched - self.skip - 1) % self.every_kth:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.injected += 1
        return True


class FaultInjector:
    """A seeded registry of fault rules plus the taps that apply them."""

    def __init__(self, seed: int = 0, header_bytes: int = HEADER_BYTES) -> None:
        self.rng = random.Random(seed)
        self.header_bytes = header_bytes
        self.rules: List[FaultRule] = []
        self.enabled = True
        #: per-class counters of injected faults
        self.dropped: Dict[str, int] = {}
        self.trimmed: Dict[str, int] = {}
        self.delayed: Dict[str, int] = {}

    # --- rule construction ------------------------------------------------------

    def _rule(
        self,
        action: str,
        classes: Optional[object],
        flow_id: Optional[int],
        predicate: Optional[Callable[[Packet], bool]],
        **gating,
    ) -> FaultRule:
        """Build, register and return one rule (shared by drop/trim/delay).

        ``gating`` forwards the common keyword selectors — ``skip``,
        ``every_kth``, ``max_count``, ``probability`` (and ``delay_ps`` for
        delay rules); :class:`FaultRule` validates them.
        """
        rule = FaultRule(
            action,
            classes=frozenset(classes) if classes is not None else None,
            flow_id=flow_id,
            predicate=predicate,
            **gating,
        )
        self.rules.append(rule)
        return rule

    def drop(
        self,
        classes: Optional[object] = None,
        flow_id: Optional[int] = None,
        predicate: Optional[Callable[[Packet], bool]] = None,
        **gating,
    ) -> FaultRule:
        """Silently discard matching packets (a lossy link / queue drop)."""
        return self._rule(DROP, classes, flow_id, predicate, **gating)

    def trim(
        self,
        classes: Optional[object] = None,
        flow_id: Optional[int] = None,
        predicate: Optional[Callable[[Packet], bool]] = None,
        **gating,
    ) -> FaultRule:
        """Cut matching data packets to bare headers (a forced switch trim)."""
        return self._rule(TRIM, classes, flow_id, predicate, **gating)

    def delay(
        self,
        delay_ps: int,
        classes: Optional[object] = None,
        flow_id: Optional[int] = None,
        predicate: Optional[Callable[[Packet], bool]] = None,
        **gating,
    ) -> FaultRule:
        """Hold matching packets back for an extra *delay_ps* picoseconds."""
        return self._rule(DELAY, classes, flow_id, predicate, delay_ps=delay_ps, **gating)

    # --- application ------------------------------------------------------------

    def inspect(self, packet: Packet) -> Tuple[str, int]:
        """Apply the first claiming rule to *packet*.

        Returns ``(verdict, extra_delay_ps)``.  A TRIM verdict mutates the
        packet in place (it continues, as a header) and reports ``PASS`` to
        the caller, so taps only need to handle pass/drop/delay.
        """
        if not self.enabled or not self.rules:
            return (PASS, 0)
        packet_class = classify(packet)
        for rule in self.rules:
            if not rule.claims(packet, packet_class, self.rng):
                continue
            action = rule.action
            if action == DROP:
                self.dropped[packet_class] = self.dropped.get(packet_class, 0) + 1
                return (DROP, 0)
            if action == DELAY:
                self.delayed[packet_class] = self.delayed.get(packet_class, 0) + 1
                return (DELAY, rule.delay_ps)
            # TRIM (rules only claim untrimmed data): cut to a bare header
            packet.trim(self.header_bytes)
            self.trimmed[packet_class] = self.trimmed.get(packet_class, 0) + 1
            return (PASS, 0)
        return (PASS, 0)

    def injected_total(self) -> int:
        """Total faults injected across all rules."""
        return sum(rule.injected for rule in self.rules)

    def tap(self, target: PacketSink, eventlist: EventList) -> "FaultPoint":
        """Wrap *target* so every delivery to it passes through the injector."""
        return FaultPoint(self, target, eventlist)


class FaultPoint(PacketSink):
    """A route element that applies a :class:`FaultInjector` before delivery.

    Installed as the final element of a route in place of the protocol
    endpoint (see :meth:`repro.harness.ndp_network.NdpNetwork.create_flow`).
    Passed packets are handed to the real target in the same call — same
    simulated time, no scheduler entry — so untouched traffic is delivered
    exactly as it would be without the tap.
    """

    __slots__ = ("injector", "target", "eventlist", "name", "delivered", "dropped", "delayed")

    def __init__(self, injector: FaultInjector, target: PacketSink, eventlist: EventList) -> None:
        self.injector = injector
        self.target = target
        self.eventlist = eventlist
        self.name = f"fault-point:{getattr(target, 'name', target.__class__.__name__)}"
        self.delivered = 0
        self.dropped = 0
        self.delayed = 0

    def receive_packet(self, packet: Packet) -> None:
        verdict, extra_ps = self.injector.inspect(packet)
        if verdict == DROP:
            self.dropped += 1
            return
        if verdict == DELAY:
            self.delayed += 1
            self.eventlist.schedule_raw_in(extra_ps, self.target.receive_packet, (packet,))
            return
        self.delivered += 1
        self.target.receive_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPoint({self.name}, {self.delivered} passed, {self.dropped} dropped)"
