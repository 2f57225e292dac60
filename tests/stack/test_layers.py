"""Tests for the frame chain: splicing, ordering, demux."""

import pytest

from repro.errors import StackError
from repro.stack import FREE, Host
from repro.stack.layers import FrameLayer
from tests.conftest import make_two_hosts
from tests.oracles.codec import EthernetFrame

M1 = "02:00:00:00:00:01"
M2 = "02:00:00:00:00:02"


class Spy(FrameLayer):
    """Transparent layer recording what passes through it."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.sent = []
        self.received = []

    def on_send(self, frame_bytes: bytes) -> None:
        self.sent.append(frame_bytes)
        self.pass_down(frame_bytes)

    def on_receive(self, frame_bytes: bytes) -> None:
        self.received.append(frame_bytes)
        self.pass_up(frame_bytes)


class TestSplicing:
    def test_chain_order(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        lower = Spy("lower")
        upper = Spy("upper")
        h1.chain.splice_above_driver(lower)
        h1.chain.splice_below_ip(upper)
        names = [layer.name for layer in h1.chain.layers]
        assert names.index("lower") < names.index("upper")
        assert names[0].startswith("driver")
        assert names[-1] == "demux"

    def test_frames_traverse_spliced_layers_both_ways(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        spy1 = Spy("spy1")
        spy2 = Spy("spy2")
        h1.chain.splice_below_ip(spy1)
        h2.chain.splice_below_ip(spy2)
        sock2 = h2.udp.bind(9)
        sock1 = h1.udp.bind(0)
        sock1.sendto(b"hi", h2.ip, 9)
        sim.run()
        assert len(spy1.sent) == 1
        assert len(spy2.received) == 1

    def test_double_splice_rejected(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        spy = Spy("spy")
        h1.chain.splice_below_ip(spy)
        with pytest.raises(StackError):
            h1.chain.splice_below_ip(spy)


class TestDemux:
    def test_unclaimed_ethertype_counted(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        frame = EthernetFrame(h2.mac, h1.mac, 0x4242, b"mystery")
        h1.chain.demux.on_send(frame.to_bytes())
        sim.run()
        assert h2.chain.demux.unclaimed_frames == 1

    def test_custom_handler(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = []
        h2.chain.demux.register(0x4242, got.append)
        h1.chain.demux.on_send(EthernetFrame(h2.mac, h1.mac, 0x4242, b"yo").to_bytes())
        sim.run()
        assert len(got) == 1
        assert EthernetFrame.from_bytes(got[0]).payload == b"yo"

    def test_duplicate_handler_rejected(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        h1.chain.demux.register(0x4242, lambda d: None)
        with pytest.raises(StackError):
            h1.chain.demux.register(0x4242, lambda d: None)


class TestHostLifecycle:
    def test_fail_silences_node(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        sender = h1.udp.bind(0)
        h1.fail()
        sender.sendto(b"x", h2.ip, 9)
        sim.run()
        assert got == []
        assert not h1.is_alive

    def test_recover(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        sender = h1.udp.bind(0)
        h1.fail()
        h1.is_alive = True  # back from FAIL, no amnesia
        h1.nic.bring_up()
        sender.sendto(b"x", h2.ip, 9)
        sim.run()
        assert got == [b"x"]
