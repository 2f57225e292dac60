"""Property tests on end-to-end transport invariants.

* RLL: for an *arbitrary* pattern of frame corruption, unicast delivery to
  the layer above is exactly-once and in order.
* TCP: for arbitrary application write sizes and an arbitrary set of
  dropped data segments, the receiver observes the exact byte stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import FrameView
from repro.net.topology import Topology
from repro.rll import RllLayer
from repro.sim import Simulator, seconds
from repro.stack import FREE, Host
from repro.stack.layers import FrameLayer


class DeterministicCorruptor(FrameLayer):
    """Marks the i-th RLL data frame as corrupted (drops it) per a mask."""

    def __init__(self, drop_indices):
        super().__init__("corruptor")
        self.drop_indices = set(drop_indices)
        self._seen = 0

    def on_receive(self, frame_bytes: bytes) -> None:
        if len(frame_bytes) > 22:  # RLL data frames, not bare acks
            self._seen += 1
            if self._seen in self.drop_indices:
                return  # simulated FCS drop
        self.pass_up(frame_bytes)


def rll_pair(seed=1):
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    topo.add_link("l0", queue_frames=1024)
    h1 = Host(sim, "node1", "02:00:00:00:00:01", "192.168.1.1", costs=FREE)
    h2 = Host(sim, "node2", "02:00:00:00:00:02", "192.168.1.2", costs=FREE)
    for h in (h1, h2):
        for other in (h1, h2):
            h.add_neighbor(other.ip, other.mac)
        h.chain.splice_above_driver(RllLayer(sim))
    topo.connect("l0", h1.nic, h2.nic)
    return sim, h1, h2


class TestRllExactlyOnceInOrder:
    @given(
        drops=st.sets(st.integers(min_value=1, max_value=60), max_size=25),
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_drop_patterns(self, drops, count):
        sim, h1, h2 = rll_pair()
        # splice_above_driver inserts at the bottom of the spliced stack,
        # so the corruptor lands *below* the already-spliced RLL: it eats
        # raw wire frames exactly like hardware FCS drops would.
        h2.chain.splice_above_driver(DeterministicCorruptor(drops))
        assert [l.name for l in h2.chain.layers][1] == "corruptor"

        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(
            int.from_bytes(p[:2], "big")
        )
        sender = h1.udp.bind(0)
        for i in range(count):
            sim.after(
                (i + 1) * 50_000,
                lambda i=i: sender.sendto(i.to_bytes(2, "big") + bytes(40), h2.ip, 9),
            )
        sim.run_until(seconds(10))
        assert got == list(range(count))


class TestTcpStreamIntegrity:
    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=4000), min_size=1, max_size=8),
        drops=st.sets(st.integers(min_value=1, max_value=30), max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_writes_and_losses(self, chunks, drops):
        from tests.tcp.test_connection import LossLayer

        sim = Simulator(seed=5)
        topo = Topology(sim)
        topo.add_switch("sw0")
        h1 = Host(sim, "node1", "02:00:00:00:00:01", "192.168.1.1", costs=FREE)
        h2 = Host(sim, "node2", "02:00:00:00:00:02", "192.168.1.2", costs=FREE)
        for h in (h1, h2):
            for other in (h1, h2):
                h.add_neighbor(other.ip, other.mac)
        topo.connect("sw0", h1.nic, h2.nic)
        h2.chain.splice_below_ip(LossLayer(drop_data_indices=drops))

        received = bytearray()
        h2.tcp.listen(80, lambda c: setattr(c, "on_data", received.extend))
        conn = h1.tcp.connect(h2.ip, 80)
        expected = bytearray()
        for index, size in enumerate(chunks):
            chunk = bytes([index % 251]) * size
            expected.extend(chunk)

        def feed():
            for index, size in enumerate(chunks):
                conn.send(bytes([index % 251]) * size)

        conn.on_established = feed
        sim.run_until(seconds(60))
        assert bytes(received) == bytes(expected)
