"""The NDP receiver (per-connection sink).

The receiver is where NDP's intelligence lives: trimmed headers give it a
complete picture of instantaneous demand, and from the second RTT onwards it
controls exactly which sender transmits, and when, by pacing PULL packets
from the host-wide :class:`~repro.core.pull_queue.NdpPullPacer`.

Per arriving packet the sink:

* sends an ACK immediately for a full data packet (so the sender can free
  the buffer and cancel its timer),
* sends a NACK immediately for a trimmed header (so the sender queues the
  packet for retransmission), and
* adds a pull request to the host's shared pull queue, unless it already has
  enough outstanding pulls to cover the data it still needs.

When the transfer completes, any remaining pull requests for this connection
are purged so no useless PULLs are sent.

Liveness: PULLs themselves travel through the fabric's header queues and can
be lost (dropped from an overflowing header queue).  If the *final* PULLs of
a transfer are lost, the sender — whose per-packet RTOs were cancelled by the
NACKs — would wait forever.  Each sink therefore keeps a *pull-retry
watchdog*: a shadow :class:`~repro.sim.eventlist.Timer` that fires when the
transfer has been idle for ``pull_rto_ps`` with packets still missing and no
pull requests queued at the pacer, and re-emits PULLs for the outstanding
packets (up to ``max_pull_retries`` consecutive rounds without progress).
Shadow timers never perturb the event order of a healthy run (see
:mod:`repro.sim.eventlist`).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Set

from repro.core.config import NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.core.path_manager import PathManager
from repro.core.pull_queue import NdpPullPacer
from repro.sim.eventlist import EventList, Timer
from repro.sim.logger import FlowRecord
from repro.sim.network import NetworkEndpoint
from repro.sim.packet import Packet, PacketPriority, Route

_HIGH = PacketPriority.HIGH


class NdpSink(NetworkEndpoint):
    """Receiving endpoint of one NDP connection."""

    __slots__ = (
        "flow_id",
        "config",
        "pacer",
        "priority",
        "on_complete",
        "rng",
        "reverse_paths",
        "record",
        "src_node_id",
        "_received",
        "_expected_packets",
        "_pull_counter",
        "_saw_last",
        "_highest_seqno_seen",
        "_retry_timer",
        "_retries",
        "_activity_ps",
        "acks_sent",
        "nacks_sent",
        "pulls_emitted",
    )

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        pacer: NdpPullPacer,
        reverse_routes: Sequence[Route],
        config: Optional[NdpConfig] = None,
        rng: Optional[random.Random] = None,
        priority: bool = False,
        on_complete: Optional[Callable[["NdpSink"], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(eventlist, node_id, name or f"ndp-sink-{flow_id}")
        self.flow_id = flow_id
        self.config = config if config is not None else NdpConfig()
        self.pacer = pacer
        self.priority = priority
        self.on_complete = on_complete
        self.rng = rng if rng is not None else random.Random(flow_id)
        self.reverse_paths = PathManager(reverse_routes, rng=self.rng, penalize=False)
        self.record = FlowRecord(flow_id=flow_id, src=-1, dst=node_id, flow_size_bytes=0)
        self.src_node_id = -1
        self._received: Set[int] = set()
        self._expected_packets: Optional[int] = None
        self._pull_counter = 0
        self._saw_last = False
        self._highest_seqno_seen = -1
        self._retry_timer: Optional[Timer] = None
        self._retries = 0
        self._activity_ps = -1
        self.acks_sent = 0
        self.nacks_sent = 0
        self.pulls_emitted = 0
        self.pacer.register(self)

    # --- wiring -----------------------------------------------------------------

    def expect(self, src_node_id: int, flow_size_bytes: int, total_packets: int) -> None:
        """Tell the sink how large the incoming transfer will be.

        In a real deployment this is carried by the SYN-flagged first-RTT
        packets; in the simulator the connection helper calls it when wiring
        a sender to its sink.
        """
        self.src_node_id = src_node_id
        self.record.src = src_node_id
        self.record.flow_size_bytes = flow_size_bytes
        self._expected_packets = total_packets

    def set_priority(self, priority: bool) -> None:
        """Mark (or unmark) this connection as high priority at the pull queue."""
        self.priority = priority

    def update_reverse_routes(self, routes: Sequence[Route]) -> None:
        """Adopt new reverse (ACK/NACK/PULL) routes after a link-state change."""
        self.reverse_paths.update_routes(routes)

    # --- protocol state ------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once every data packet of the transfer has been received."""
        if self._expected_packets is not None:
            return len(self._received) >= self._expected_packets
        return self._saw_last and len(self._received) == self._highest_seqno_seen + 1

    def packets_received(self) -> int:
        """Number of distinct data packets received in full."""
        return len(self._received)

    def remaining_packets(self) -> Optional[int]:
        """Packets still missing, or ``None`` if the total is not yet known."""
        if self._expected_packets is None:
            if not self._saw_last:
                return None
            return self._highest_seqno_seen + 1 - len(self._received)
        return self._expected_packets - len(self._received)

    # --- packet handling -------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, NdpDataPacket):
            raise TypeError(f"NdpSink received unexpected packet type {type(packet)!r}")
        record = self.record
        if self._activity_ps < 0:
            # First arrival: arm the pull-retry watchdog for the rest of the
            # transfer.  Not at connect time — a flow scheduled to start
            # later must not be pulled into transmitting early.  A shadow
            # timer, so arming (and cancelling at completion) cannot perturb
            # the event order of a run in which it never fires.
            if self.config.max_pull_retries > 0 and self._retry_timer is None:
                timer = self._retry_timer = Timer(
                    self.eventlist, self._pull_retry_due, shadow=True
                )
                timer.schedule_at(self.eventlist._now + self.config.pull_rto_ps)
        self._activity_ps = self.eventlist._now
        if record.start_time_ps is None:
            record.start_time_ps = self.eventlist._now
        if packet.syn and self.src_node_id < 0:
            # Zero-RTT connection establishment: whichever first-RTT packet
            # arrives first creates the connection state.
            self.src_node_id = packet.src
            record.src = packet.src
        seqno = packet.seqno
        if seqno > self._highest_seqno_seen:
            self._highest_seqno_seen = seqno
        if packet.last:
            self._saw_last = True
        if packet.is_header_only:
            self._handle_header(packet)
        else:
            self._handle_data(packet)

    def _handle_data(self, packet: NdpDataPacket) -> None:
        self.record.packets_delivered += 1
        seqno = packet.seqno
        if seqno not in self._received:
            self._received.add(seqno)
            self.record.bytes_delivered += packet.payload_bytes
        # one ACK per arriving data packet: __new__ plus one write per field
        # (route/path_id/hop/send_time are stamped by _send_control below)
        # skips the constructor's call frame and its placeholder writes
        ack = NdpAck.__new__(NdpAck)
        header_bytes = self.config.header_bytes
        ack.flow_id = self.flow_id
        ack.src = self.node_id
        ack.dst = packet.src
        ack.size = header_bytes
        ack.original_size = header_bytes
        ack.seqno = seqno
        ack.priority = _HIGH
        ack.is_header_only = False
        ack.bounced = False
        ack.ecn_capable = False
        ack.ecn_ce = False
        ack.data_path_id = packet.path_id
        self._send_control(ack)
        self.acks_sent += 1
        # inlined completeness / pull-gate checks (once per data arrival):
        # semantics match the `complete` property and the pacer pull gate
        # (ask for a pull only while outstanding pulls < packets still needed)
        expected = self._expected_packets
        received = len(self._received)
        if expected is not None:
            remaining = expected - received
            if remaining <= 0:
                self._finish()
                return
        else:
            if self._saw_last and received == self._highest_seqno_seen + 1:
                self._finish()
                return
            remaining = (
                self._highest_seqno_seen + 1 - received if self._saw_last else None
            )
        if remaining is not None and self.pacer._pending.get(self.flow_id, 0) >= remaining:
            return
        self.pacer.request_pull(self)

    def _handle_header(self, packet: NdpDataPacket) -> None:
        self.record.headers_received += 1
        # one NACK per trimmed header (allocated as in _handle_data)
        nack = NdpNack.__new__(NdpNack)
        header_bytes = self.config.header_bytes
        nack.flow_id = self.flow_id
        nack.src = self.node_id
        nack.dst = packet.src
        nack.size = header_bytes
        nack.original_size = header_bytes
        nack.seqno = packet.seqno
        nack.priority = _HIGH
        nack.is_header_only = False
        nack.bounced = False
        nack.ecn_capable = False
        nack.ecn_ce = False
        nack.data_path_id = packet.path_id
        self._send_control(nack)
        self.nacks_sent += 1
        # inlined completeness / pull-gate (matches _handle_data above)
        expected = self._expected_packets
        received = len(self._received)
        if expected is not None:
            remaining = expected - received
            if remaining <= 0:
                return
        else:
            if self._saw_last and received == self._highest_seqno_seen + 1:
                return
            remaining = (
                self._highest_seqno_seen + 1 - received if self._saw_last else None
            )
        if remaining is not None and self.pacer._pending.get(self.flow_id, 0) >= remaining:
            return
        self.pacer.request_pull(self)

    # --- pulls -----------------------------------------------------------------------

    def emit_pull(self) -> None:
        """Called by the pacer when it is this connection's turn to pull."""
        # inlined `complete` property (once per emitted PULL)
        expected = self._expected_packets
        if expected is not None:
            if len(self._received) >= expected:
                return
        elif self._saw_last and len(self._received) == self._highest_seqno_seen + 1:
            return
        self._pull_counter += 1
        self.pulls_emitted += 1
        # one PULL per pacer grant (allocated as in _handle_data)
        pull = NdpPull.__new__(NdpPull)
        header_bytes = self.config.header_bytes
        counter = self._pull_counter
        pull.flow_id = self.flow_id
        pull.src = self.node_id
        pull.dst = self.src_node_id
        pull.size = header_bytes
        pull.original_size = header_bytes
        pull.seqno = counter
        pull.priority = _HIGH
        pull.is_header_only = False
        pull.bounced = False
        pull.ecn_capable = False
        pull.ecn_ce = False
        pull.data_path_id = 0
        pull.pull_counter = counter
        self._send_control(pull)

    # --- liveness ----------------------------------------------------------------------

    def _pull_retry_due(self) -> None:
        """Pull-retry watchdog: re-emit PULLs when the transfer stalls.

        A transfer counts as *stalled* when nothing has arrived for a full
        stall horizon (``pull_rto_ps`` plus the pacer's current backlog
        drain time) and no pull requests for this connection are queued at
        the pacer; anything else just pushes the deadline out.  Each stalled
        round tops the pull queue back up to the number of missing packets
        (capped at the initial window) so the sender's pull clock restarts;
        after ``max_pull_retries`` consecutive rounds without progress the
        watchdog gives up (the sender keepalive remains as the last resort).
        """
        timer = self._retry_timer
        if timer is None or self.complete:
            return
        config = self.config
        now = self.eventlist._now
        pacer = self.pacer
        pending = pacer._pending.get(self.flow_id, 0)
        # A busy receiver serves hundreds of connections round-robin, so the
        # legitimate gap between two arrivals of one flow is the pacer's
        # whole backlog drain time — the stall horizon must stretch with it
        # or the watchdog would re-pull flows that are merely waiting their
        # turn.  The receiver owns the pacer, so the horizon is exact.
        horizon_ps = config.pull_rto_ps + pacer._total_pending * pacer.pull_interval_ps
        idle_ps = now - self._activity_ps if self._activity_ps >= 0 else horizon_ps
        if pending > 0 or idle_ps < horizon_ps:
            # The pull clock is alive (queued requests or a recent-enough
            # arrival): not a stall, just move the deadline out.  Only an
            # actual arrival resets the give-up counter — our own queued
            # retries waiting out a pacer backlog are not progress, and
            # must not let the watchdog exceed its max_pull_retries bound.
            if idle_ps < horizon_ps:
                self._retries = 0
            when = self._activity_ps + horizon_ps
            if when <= now:
                when = now + config.pull_rto_ps
            timer.schedule_at(when)
            return
        if self._retries >= config.max_pull_retries:
            return  # give up; deliberately leave the watchdog disarmed
        self._retries += 1
        self.record.pull_retries += 1
        remaining = self.remaining_packets()
        need = remaining if remaining is not None and remaining > 0 else 1
        if need > config.initial_window_packets:
            need = config.initial_window_packets
        for _ in range(need):
            self.pacer.request_pull(self)
        timer.schedule_at(now + config.pull_rto_ps)

    # --- helpers -----------------------------------------------------------------------

    def _send_control(self, packet: Packet) -> None:
        route = self.reverse_paths.next_route()
        # inlined NetworkEndpoint.inject (one call per ACK/NACK/PULL)
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    def _finish(self) -> None:
        if self.record.finish_time_ps is None:
            self.record.finish_time_ps = self.now()
            self.pacer.purge(self.flow_id)
            if self._retry_timer is not None:
                self._retry_timer.cancel()
            if self.on_complete is not None:
                self.on_complete(self)
