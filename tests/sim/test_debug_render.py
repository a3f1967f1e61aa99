"""Debug renderers of scheduled work.

``Event.__repr__`` / ``Timer.__repr__`` are where a callback and its
arguments get rendered *outside* the protocol hot path — post-mortems and
assertion messages.  They must show the arguments (packets included) and
the entry's lifecycle state.
"""

from __future__ import annotations

from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList, Timer


class TestSchedulerReprs:
    def test_event_repr_states(self):
        eventlist = EventList()
        event = eventlist.schedule(10, lambda: None)
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_event_repr_renders_packet_args(self):
        packet = NdpDataPacket(9, 0, 1, 13, 8936)
        eventlist = EventList()
        event = eventlist.schedule(50, lambda p: None, packet)
        text = repr(event)
        assert "flow=9" in text and "seq=13" in text and "9000B" in text
        assert "pending" in text

    def test_timer_repr_states(self):
        packet = NdpDataPacket(9, 0, 1, 21, 8936)
        eventlist = EventList()
        timer = Timer(eventlist, lambda p: None, packet)
        timer.schedule_at(100)
        text = repr(timer)
        assert "seq=21" in text and "armed@100" in text
        timer.cancel()
        assert "idle" in repr(timer)
