"""Tests for the packet capture subsystem."""

from repro.sim import seconds
from repro.stack import FREE
from repro.trace import TapLayer, TraceRecorder
from tests.conftest import make_two_hosts


def rig(sim):
    _, h1, h2 = make_two_hosts(sim, costs=FREE)
    recorder = TraceRecorder(sim)
    h1.chain.splice_below_ip(TapLayer(recorder, "node1"))
    h2.chain.splice_below_ip(TapLayer(recorder, "node2"))
    return recorder, h1, h2


class TestCapture:
    def test_both_directions_recorded(self, sim):
        recorder, h1, h2 = rig(sim)
        h2.udp.bind(9)
        h1.udp.bind(0).sendto(b"ping", h2.ip, 9)
        sim.run()
        assert len(recorder.select(where="node1", direction="send")) == 1
        assert len(recorder.select(where="node2", direction="recv")) == 1

    def test_predicate_select(self, sim):
        recorder, h1, h2 = rig(sim)
        h2.udp.bind(9)
        sender = h1.udp.bind(0)
        sender.sendto(b"short", h2.ip, 9)
        sender.sendto(b"a much longer payload indeed", h2.ip, 9)
        sim.run()
        big = recorder.select(
            where="node1", predicate=lambda r: len(r.data) > 60
        )
        assert len(big) == 1

    def test_tcp_records_helper(self, sim):
        recorder, h1, h2 = rig(sim)
        h2.tcp.listen(80)
        conn = h1.tcp.connect(h2.ip, 80)
        sim.run_until(seconds(2))
        tcp = recorder.select(predicate=lambda r: r.view.tcp is not None)
        assert len(tcp) >= 3  # SYN, SYNACK, ACK, both taps

    def test_render_contains_summaries(self, sim):
        recorder, h1, h2 = rig(sim)
        h2.udp.bind(9)
        h1.udp.bind(0).sendto(b"x", h2.ip, 9)
        sim.run()
        text = recorder.render()
        assert "UDP" in text and "node1" in text and "send" in text

    def test_bounded_capture(self, sim):
        recorder, h1, h2 = rig(sim)
        recorder.max_records = 3
        h2.udp.bind(9)
        sender = h1.udp.bind(0)
        for _ in range(10):
            sender.sendto(b"x", h2.ip, 9)
        sim.run()
        assert len(recorder) == 3
        assert recorder.dropped_records > 0
        # A saturated capture must say so instead of posing as complete.
        text = recorder.render()
        assert text.endswith(
            f"... {recorder.dropped_records} records dropped "
            f"(capture saturated at 3)"
        )
        # Explicit record selections are partial by construction: no trailer.
        assert "dropped" not in recorder.render(recorder.records)

    def test_clear(self, sim):
        recorder, h1, h2 = rig(sim)
        h2.udp.bind(9)
        h1.udp.bind(0).sendto(b"x", h2.ip, 9)
        sim.run()
        recorder.clear()
        assert len(recorder) == 0
