"""The packet half of the leak invariant: nothing stays in a queue.

:func:`~tests.protocol.scenarios.assert_no_leaks` requires every queue of a
drained network to be empty.  These tests pin that the check is not
vacuous: a contended run really does pass packets through the queues it
inspects, and a packet stranded in a queue — in service with no completion
scheduled, or buffered behind a port nobody resumes — makes it fail.
"""

from __future__ import annotations

import pytest

from repro.core.packets import NdpDataPacket
from tests.protocol.scenarios import assert_no_leaks, build_incast, run_to_quiescence


def _drained_incast():
    eventlist, network, flows = build_incast(senders=8)
    run_to_quiescence(eventlist)
    assert all(flow.complete for flow in flows)
    return eventlist, network, flows


def _send_stray_packet(network, flows) -> None:
    """Send one data packet of a finished flow into its source's NIC."""
    flow = flows[0]
    packet = NdpDataPacket(flow.flow_id, flow.src_host, flow.dst_host, 0, 1000)
    route = flow.src.paths.next_route()
    packet.set_route(route)
    packet.send_to_next_hop()


class TestStrandedPackets:
    def test_drained_incast_queues_empty(self):
        _eventlist, network, _flows = _drained_incast()
        assert_no_leaks(network)
        # the run must actually have pushed packets through the queues the
        # check inspects, and trimmed some, or the check above is vacuous
        queues = list(network.topology.all_queues())
        assert sum(queue.stats.packets_forwarded for queue in queues) > 0
        assert sum(queue.stats.packets_trimmed for queue in queues) > 0

    def test_packet_left_in_service_fails(self, monkeypatch):
        eventlist, network, flows = _drained_incast()
        nic = flows[0].src.paths.next_route().elements[0]
        # the completion event still runs, but does nothing: the packet it
        # should have forwarded stays in service and the port stays busy
        monkeypatch.setattr(nic, "_complete_cb", lambda: None)
        _send_stray_packet(network, flows)
        run_to_quiescence(eventlist)
        assert len(nic) == 1 and nic._in_service is not None
        with pytest.raises(AssertionError, match="stranded in queues"):
            assert_no_leaks(network)

    def test_packet_left_in_backlog_fails(self):
        eventlist, network, flows = _drained_incast()
        nic = flows[0].src.paths.next_route().elements[0]
        nic.pause()  # never resumed: the packet waits in the FIFO forever
        _send_stray_packet(network, flows)
        run_to_quiescence(eventlist)
        assert len(nic) == 1 and nic._in_service is None
        with pytest.raises(AssertionError, match="stranded in queues"):
            assert_no_leaks(network)
