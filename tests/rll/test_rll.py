"""Tests for the Reliable Link Layer: the "controlled environment" layer."""

import pytest

from repro.errors import PacketError
from repro.net.topology import Topology
from repro.rll import DEFAULT_WINDOW, RllLayer, KIND_ACK, KIND_DATA
from repro.rll.frames import SEQ_MOD, seq_diff
from repro.sim import Simulator, ms, seconds
from repro.stack import FREE, Host
from tests.oracles.codec import EthernetFrame, RllFrame


class TestRllFrames:
    def test_data_roundtrip(self):
        inner = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"payload"
        )
        shim = RllFrame.data_for(inner, seq=5, ack=3)
        outer = shim.wrap(inner.dst, inner.src)
        parsed = RllFrame.maybe_parse(outer)
        assert parsed.kind == KIND_DATA
        assert parsed.seq == 5 and parsed.ack == 3
        assert parsed.unwrap(outer) == inner

    def test_pure_ack_roundtrip(self):
        shim = RllFrame.pure_ack(9)
        outer = shim.wrap("02:00:00:00:00:02", "02:00:00:00:00:01")
        parsed = RllFrame.maybe_parse(outer)
        assert parsed.kind == KIND_ACK and parsed.ack == 9

    def test_non_rll_frame_returns_none(self):
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"ip"
        )
        assert RllFrame.maybe_parse(frame) is None

    def test_short_shim_rejected(self):
        with pytest.raises(PacketError):
            RllFrame.parse(b"\x01\x00\x00")

    def test_ack_cannot_unwrap(self):
        shim = RllFrame.pure_ack(1)
        outer = shim.wrap("02:00:00:00:00:02", "02:00:00:00:00:01")
        with pytest.raises(PacketError):
            shim.unwrap(outer)

    def test_seq_diff_wraps(self):
        assert seq_diff(1, SEQ_MOD - 1) == 2
        assert seq_diff(SEQ_MOD - 1, 1) == -2


def build_rll_pair(seed=7, bit_error_rate=0.0):
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    topo.add_link("l0", bit_error_rate=bit_error_rate, queue_frames=512)
    h1 = Host(sim, "node1", "02:00:00:00:00:01", "192.168.1.1", costs=FREE)
    h2 = Host(sim, "node2", "02:00:00:00:00:02", "192.168.1.2", costs=FREE)
    layers = []
    for h in (h1, h2):
        h.learn_neighbors([h1, h2])
        layer = RllLayer(sim)
        h.chain.splice_above_driver(layer)
        layers.append(layer)
    topo.connect("l0", h1.nic, h2.nic)
    return sim, h1, h2, layers


class TestReliability:
    def test_transparent_on_clean_link(self):
        sim, h1, h2, layers = build_rll_pair()
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        sender = h1.udp.bind(0)
        for i in range(50):
            sender.sendto(bytes([i]), h2.ip, 9)
        sim.run_until(seconds(2))
        assert [p[0] for p in got] == list(range(50))
        assert layers[0].retransmissions == 0

    def test_masks_bit_errors_in_order_exactly_once(self):
        sim, h1, h2, layers = build_rll_pair(bit_error_rate=5e-5)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        sender = h1.udp.bind(0)
        for i in range(200):
            sim.after(i * 100_000, lambda i=i: sender.sendto(
                i.to_bytes(2, "big") + bytes(200), h2.ip, 9))
        sim.run_until(seconds(5))
        # Every datagram arrives, in order, exactly once.
        assert [int.from_bytes(p[:2], "big") for p in got] == list(range(200))
        assert h2.nic.fcs_drops > 0  # the link really did corrupt frames
        assert layers[0].retransmissions > 0  # and the RLL really recovered

    def test_window_backpressure(self):
        sim, h1, h2, layers = build_rll_pair()
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        sender = h1.udp.bind(0)
        for i in range(DEFAULT_WINDOW + 4):
            sender.sendto(bytes([i]) + bytes(100), h2.ip, 9)
        assert [len(peer.backlog) for peer in layers[0]._peers.values()] == [4]
        sim.run_until(seconds(2))
        assert len(got) == DEFAULT_WINDOW + 4  # the backlog drains through the window

    def test_dead_peer_abandons_after_retry_cap(self):
        sim, h1, h2, layers = build_rll_pair()
        h2.fail()
        sender = h1.udp.bind(0)
        sender.sendto(b"into the void", h2.ip, 9)
        sim.run_until(seconds(5))
        assert layers[0].abandoned_frames >= 1
        # The simulator must quiesce: no infinite retransmission storm.
        assert not sim.queue

    def test_multicast_bypasses_window(self):
        sim, h1, h2, layers = build_rll_pair()
        frame = EthernetFrame("ff:ff:ff:ff:ff:ff", h1.mac, 0x4242, b"hello all")
        got = []
        h2.chain.demux.register(0x4242, got.append)
        h1.chain.demux.on_send(frame.to_bytes())
        sim.run_until(ms(10))
        assert len(got) == 1
        assert layers[0].bypass_frames >= 1
        assert layers[0].data_sent == 0  # not windowed

    def test_peer_without_rll_interops_downward(self):
        """An RLL host still *receives* plain frames from a non-RLL peer."""
        sim = Simulator(seed=7)
        topo = Topology(sim)
        topo.add_link("l0")
        h1 = Host(sim, "node1", "02:00:00:00:00:01", "192.168.1.1", costs=FREE)
        h2 = Host(sim, "node2", "02:00:00:00:00:02", "192.168.1.2", costs=FREE)
        for h in (h1, h2):
            h.learn_neighbors([h1, h2])
        h2.chain.splice_above_driver(RllLayer(sim))  # only the receiver has RLL
        topo.connect("l0", h1.nic, h2.nic)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        h1.udp.bind(0).sendto(b"plain", h2.ip, 9)
        sim.run_until(ms(100))
        assert got == [b"plain"]

    def test_statistics_accounting(self):
        sim, h1, h2, layers = build_rll_pair()
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        h1.udp.bind(0).sendto(b"one", h2.ip, 9)
        sim.run_until(ms(100))
        tx = layers[0]
        rx = layers[1]
        assert tx.data_sent == 1
        assert rx.data_received == 1
        assert rx.acks_sent == 1
        assert tx.acks_received == 1


class TestReceiveIsTotal:
    """Wire bytes no well-formed peer would send are counted and dropped;
    they must never raise out of the simulation (ROADMAP aim 3)."""

    #: node2's MAC, node1's MAC, the RLL EtherType.
    RLL_HEADER = bytes.fromhex("020000000002" "020000000001" "88b6")

    @pytest.mark.parametrize(
        "frame",
        [
            RLL_HEADER + bytes([9, 0, 0, 0, 0, 0, 8, 0]) + bytes(50),  # kind 9
            RLL_HEADER + bytes([KIND_DATA, 0, 0]),  # shim shorter than 8 bytes
            RLL_HEADER[:9],  # runt: not even an Ethernet header
            RLL_HEADER + bytes(1600),  # longer than any Ethernet payload
        ],
        ids=["bad-kind", "short-shim", "runt", "over-mtu"],
    )
    def test_malformed_frame_is_counted_and_dropped(self, frame):
        sim, h1, h2, layers = build_rll_pair()
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        h1.nic.transmit(frame)
        h1.udp.bind(0).sendto(b"after", h2.ip, 9)
        sim.run_until(ms(100))  # raised PacketError before
        assert layers[1].malformed_discarded == 1
        assert got == [b"after"]  # well-formed traffic is unaffected
        assert layers[1].data_received == 1
