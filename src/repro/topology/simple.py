"""Micro-topologies: a single switch, and two back-to-back hosts.

These are used for the small-scale experiments in the paper —

* Figure 2 (many unresponsive flows converging on one 10 Gb/s output port),
* Figure 21 (the sender-limited A→{B,C,D,E}, F→E pattern around one switch),
* Figures 8/11/12 (two servers connected back-to-back) —

and extensively by the unit tests, where a full Clos would only obscure the
behaviour under test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.eventlist import EventList
from repro.sim.units import DEFAULT_LINK_RATE_BPS, microseconds
from repro.topology.base import QueueFactory, Topology
from repro.topology.route_table import NodePath


class SingleSwitchTopology(Topology):
    """A star: every host hangs off one switch.

    Any pair of hosts is connected by exactly one path, and all traffic to a
    host shares the switch's output port towards it — the simplest setting
    that exhibits incast and output-port overload.
    """

    SWITCH = "switch0"

    def __init__(
        self,
        eventlist: EventList,
        hosts: int = 2,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        link_delay_ps: int = microseconds(1),
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        if hosts < 2:
            raise ValueError("a single-switch topology needs at least two hosts")
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            link_delay_ps=link_delay_ps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.host_count = hosts
        self._build()

    def _build(self) -> None:
        for host in range(self.host_count):
            host_node = self.host_name(host)
            self.add_link(host_node, self.SWITCH, is_host_uplink=True)
            self.add_link(self.SWITCH, host_node)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        return [(self.host_name(src_host), self.SWITCH, self.host_name(dst_host))]

    def downlink_queue(self, host: int):
        """The switch output queue towards *host* (the incast hot spot)."""
        return self.queue(self.SWITCH, self.host_name(host))


class BackToBackTopology(Topology):
    """Two hosts connected by a single cable (the §5 RPC latency setup)."""

    def __init__(
        self,
        eventlist: EventList,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        link_delay_ps: int = microseconds(1),
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            link_delay_ps=link_delay_ps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.host_count = 2
        self.add_link("host0", "host1", is_host_uplink=True)
        self.add_link("host1", "host0", is_host_uplink=True)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        return [(self.host_name(src_host), self.host_name(dst_host))]
