"""Tests for the NDP trimming switch queue and the CP baseline queue."""

from __future__ import annotations

import random

import pytest

from repro.core.config import NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpPull
from repro.core.switch import CpSwitchQueue, NdpSwitchQueue
from repro.sim.eventlist import EventList
from repro.sim.network import CountingSink, NetworkEndpoint
from repro.sim.packet import Route
from repro.sim.units import gbps, serialization_time_ps


class FakeSender(NetworkEndpoint):
    """Collects packets bounced back by return-to-sender, with arrival times."""

    def __init__(self, eventlist):
        super().__init__(eventlist, node_id=0, name="fake-sender")
        self.bounced = []
        self.arrivals = []

    def receive_packet(self, packet):
        self.bounced.append(packet)
        self.arrivals.append(self.eventlist.now())


def data_packet(seq, size=9000, src_endpoint=None):
    return NdpDataPacket(
        flow_id=1,
        src=0,
        dst=1,
        seqno=seq,
        payload_bytes=size - 64,
        src_endpoint=src_endpoint,
    )


def push(queue, packets, sink=None):
    sink = sink if sink is not None else CountingSink()
    route = Route([queue, sink])
    for packet in packets:
        packet.set_route(route)
        packet.send_to_next_hop()
    return sink


class TestTrimming:
    def test_no_trimming_below_capacity(self, eventlist):
        queue = NdpSwitchQueue(eventlist, gbps(10), NdpConfig(), random.Random(1))
        sink = push(queue, [data_packet(i) for i in range(8)])
        eventlist.run()
        assert queue.stats.packets_trimmed == 0
        assert sink.packets_received == 8
        assert all(not p.is_header_only for p in [sink.last_packet])

    def test_overflow_trims_but_never_drops_data(self, eventlist):
        queue = NdpSwitchQueue(eventlist, gbps(10), NdpConfig(), random.Random(2))
        packets = [data_packet(i) for i in range(30)]
        sink = push(queue, packets)
        eventlist.run()
        # one in service + 8 queued can stay full size; the rest are trimmed
        assert queue.stats.packets_trimmed == 21
        assert sink.packets_received == 30
        assert queue.stats.packets_dropped == 0

    def test_trimmed_packets_keep_sequence_numbers(self, eventlist):
        queue = NdpSwitchQueue(eventlist, gbps(10), NdpConfig(), random.Random(3))
        packets = [data_packet(i) for i in range(20)]
        push(queue, packets)
        eventlist.run()
        trimmed = [p for p in packets if p.is_header_only]
        assert trimmed
        assert all(p.size == 64 for p in trimmed)
        assert len({p.seqno for p in trimmed}) == len(trimmed)

    def test_trim_choice_uses_both_arriving_and_tail(self, eventlist):
        queue = NdpSwitchQueue(eventlist, gbps(10), NdpConfig(), random.Random(4))
        push(queue, [data_packet(i) for i in range(200)])
        eventlist.run()
        # with 50% probability both victims should occur over 190 trims
        assert queue.trimmed_arriving > 0
        assert queue.trimmed_from_tail > 0
        assert queue.trimmed_arriving + queue.trimmed_from_tail == queue.stats.packets_trimmed

    def test_trim_probability_one_always_trims_arrival(self, eventlist):
        config = NdpConfig(trim_arriving_probability=1.0)
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(5))
        push(queue, [data_packet(i) for i in range(50)])
        eventlist.run()
        assert queue.trimmed_from_tail == 0
        assert queue.trimmed_arriving == 41


class TestPriorityScheduling:
    def test_control_packets_bypass_data_backlog(self, eventlist):
        queue = NdpSwitchQueue(eventlist, gbps(10), NdpConfig(), random.Random(6))
        sink = CountingSink()
        arrival_order = []

        class Recorder(CountingSink):
            def receive_packet(self, packet):
                super().receive_packet(packet)
                arrival_order.append(packet)

        recorder = Recorder()
        data = [data_packet(i) for i in range(6)]
        push(queue, data, sink=recorder)
        ack = NdpAck(flow_id=2, src=1, dst=0, seqno=0)
        push(queue, [ack], sink=recorder)
        eventlist.run()
        # the ACK arrived last but overtakes all queued data packets (only the
        # packet already in service precedes it)
        assert arrival_order.index(ack) == 1

    def test_wrr_prevents_header_starvation_of_data(self, eventlist):
        config = NdpConfig(wrr_headers_per_data=10)
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(7))
        recorder = []

        class Recorder(CountingSink):
            def receive_packet(self, packet):
                super().receive_packet(packet)
                recorder.append(packet)

        sink = Recorder()
        # big backlog of control packets plus a couple of data packets
        controls = [NdpPull(flow_id=3, src=1, dst=0, pull_counter=i) for i in range(50)]
        data = [data_packet(i) for i in range(3)]
        push(queue, data, sink=sink)
        push(queue, controls, sink=sink)
        eventlist.run()
        # data packets must not wait for all 50 control packets: each can be
        # preceded by at most wrr_headers_per_data control packets (plus the
        # one in service / already counted).
        second_data_position = [i for i, p in enumerate(recorder) if isinstance(p, NdpDataPacket)][1]
        assert second_data_position <= 2 + 2 * config.wrr_headers_per_data

    def test_headers_get_share_even_under_data_load(self, eventlist):
        config = NdpConfig()
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(8))
        order = []

        class Recorder(CountingSink):
            def receive_packet(self, packet):
                order.append(packet)

        sink = Recorder()
        data = [data_packet(i) for i in range(8)]
        push(queue, data, sink=sink)
        acks = [NdpAck(flow_id=4, src=1, dst=0, seqno=i) for i in range(4)]
        push(queue, acks, sink=sink)
        eventlist.run()
        ack_positions = [i for i, p in enumerate(order) if isinstance(p, NdpAck)]
        # all ACKs leave before the data backlog is drained
        assert max(ack_positions) < len(order) - 4


class TestReturnToSender:
    def _tiny_header_queue_config(self):
        # a header queue that only holds two 64-byte headers
        return NdpConfig(header_queue_bytes=128, data_queue_packets=2)

    def test_headers_bounced_when_header_queue_overflows(self, eventlist):
        sender = FakeSender(eventlist)
        config = self._tiny_header_queue_config()
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(9))
        packets = [data_packet(i, src_endpoint=sender) for i in range(20)]
        push(queue, packets)
        eventlist.run()
        assert queue.headers_bounced > 0
        assert len(sender.bounced) == queue.headers_bounced
        assert all(p.bounced and p.is_header_only for p in sender.bounced)

    def test_bounce_arrives_exactly_bounce_delay_after_overflow(self, eventlist):
        sender = FakeSender(eventlist)
        # always trim the arriving packet, so the overflow that bounces a
        # header is that packet's own arrival at the queue
        config = self._tiny_header_queue_config().with_overrides(
            trim_arriving_probability=1.0
        )
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(9))
        route = Route([queue, CountingSink()])
        # arrivals four times faster than the port drains them
        gap = serialization_time_ps(9000, gbps(10)) // 4
        pushed_at = {}

        def arrive(packet):
            pushed_at[packet.seqno] = eventlist.now()
            packet.set_route(route)
            packet.send_to_next_hop()

        for seq in range(40):
            packet = data_packet(seq, src_endpoint=sender)
            eventlist.schedule_raw(seq * gap, arrive, (packet,))
        eventlist.run()
        assert queue.headers_bounced > 1
        assert len(sender.arrivals) == queue.headers_bounced
        overflow_times = [pushed_at[packet.seqno] for packet in sender.bounced]
        assert len(set(overflow_times)) > 1  # bounces from distinct instants
        assert [
            arrival - overflow
            for arrival, overflow in zip(sender.arrivals, overflow_times)
        ] == [queue.bounce_delay_ps] * queue.headers_bounced

    def test_bounce_disabled_drops_headers(self, eventlist):
        config = self._tiny_header_queue_config().with_overrides(return_to_sender=False)
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(10))
        packets = [data_packet(i) for i in range(20)]
        push(queue, packets)
        eventlist.run()
        assert queue.headers_bounced == 0
        assert queue.stats.packets_dropped > 0

    def test_control_packets_dropped_not_bounced_on_overflow(self, eventlist):
        config = self._tiny_header_queue_config()
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(11))
        acks = [NdpAck(flow_id=5, src=1, dst=0, seqno=i) for i in range(40)]
        push(queue, acks)
        eventlist.run()
        assert queue.control_dropped > 0
        assert queue.headers_bounced == 0


class TestCpQueue:
    def test_cp_trims_into_single_fifo(self, eventlist):
        queue = CpSwitchQueue(eventlist, gbps(10), NdpConfig())
        order = []

        class Recorder(CountingSink):
            def receive_packet(self, packet):
                order.append(packet)

        packets = [data_packet(i) for i in range(20)]
        push(queue, packets, sink=Recorder())
        eventlist.run()
        assert queue.stats.packets_trimmed > 0
        trimmed_positions = [i for i, p in enumerate(order) if p.is_header_only]
        full_positions = [i for i, p in enumerate(order) if not p.is_header_only]
        # FIFO: trimmed headers do NOT overtake the data queued before them
        assert min(trimmed_positions) > min(full_positions)
        assert max(full_positions) < min(trimmed_positions) + len(trimmed_positions) + len(full_positions)

    def test_cp_drops_when_completely_full(self, eventlist):
        config = NdpConfig(data_queue_packets=2, header_queue_bytes=128)
        queue = CpSwitchQueue(eventlist, gbps(10), config)
        push(queue, [data_packet(i) for i in range(50)])
        eventlist.run()
        assert queue.stats.packets_dropped > 0


class TestTiming:
    def test_trimmed_header_forwarded_quickly(self, eventlist):
        """A trimmed header leaves far sooner than the data queue drain time."""
        config = NdpConfig()
        queue = NdpSwitchQueue(eventlist, gbps(10), config, random.Random(12))
        arrivals = {}

        class Recorder(CountingSink):
            def __init__(self, eventlist):
                super().__init__()
                self.eventlist = eventlist

            def receive_packet(self, packet):
                arrivals[(packet.seqno, packet.is_header_only)] = self.eventlist.now()

        sink = Recorder(eventlist)
        packets = [data_packet(i) for i in range(10, 20)]  # 10 packets: 1 trim expected
        config = NdpConfig(trim_arriving_probability=1.0)
        queue.config = config
        push(queue, packets, sink=sink)
        eventlist.run()
        header_times = [t for (seq, hdr), t in arrivals.items() if hdr]
        data_times = [t for (seq, hdr), t in arrivals.items() if not hdr]
        assert header_times
        # the header escapes after at most a couple of data serializations,
        # well before the full 9-packet backlog drains
        assert min(header_times) < 3 * serialization_time_ps(9000, gbps(10))
        assert max(data_times) > 8 * serialization_time_ps(9000, gbps(10))
