"""Tests for dynamic ARP resolution."""

import pytest

from repro.errors import PacketError, StackError
from repro.sim import ms, seconds
from repro.stack import FREE
from repro.stack.arp import ArpMessage, ArpService, OP_REPLY, OP_REQUEST, install_arp
from repro.stack.layers import FrameLayer
from tests.conftest import make_two_hosts


class TestArpMessage:
    def test_roundtrip(self):
        msg = ArpMessage(
            OP_REQUEST,
            "02:00:00:00:00:01",
            "192.168.1.1",
            "00:00:00:00:00:00",
            "192.168.1.2",
        )
        parsed = ArpMessage.parse(msg.to_payload())
        assert parsed.is_request
        assert str(parsed.sender_ip) == "192.168.1.1"
        assert str(parsed.target_ip) == "192.168.1.2"

    def test_bad_opcode_rejected(self):
        with pytest.raises(PacketError):
            ArpMessage(7, "02:00:00:00:00:01", "1.2.3.4", "02:00:00:00:00:02", "1.2.3.5")

    def test_short_payload_rejected(self):
        with pytest.raises(PacketError):
            ArpMessage.parse(bytes(10))


class TestResolution:
    def test_first_packet_triggers_request_then_delivery(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1, h2])
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        h1.udp.bind(0).sendto(b"needs-arp", h2.ip, 9)
        sim.run_until(seconds(1))
        assert got == [b"needs-arp"]
        assert services["node1"].requests_sent == 1
        assert services["node2"].replies_sent == 1

    def test_cache_avoids_further_requests(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1, h2])
        h2.udp.bind(9)
        sender = h1.udp.bind(0)
        for _ in range(5):
            sender.sendto(b"x", h2.ip, 9)
        sim.run_until(seconds(1))
        assert services["node1"].requests_sent == 1

    def test_opportunistic_learning_from_requests(self, sim):
        """The target of a request learns the asker's binding for free."""
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1, h2])
        h2.udp.bind(9)
        h1.udp.bind(0).sendto(b"x", h2.ip, 9)
        sim.run_until(seconds(1))
        assert services["node2"].lookup(h1.ip) == h1.mac
        # So the reverse direction resolves without a request.
        h1.udp.bind(7)
        h2.udp.bind(0).sendto(b"y", h1.ip, 7)
        sim.run_until(seconds(2))
        assert services["node2"].requests_sent == 0

    def test_queued_packets_drain_in_order(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        install_arp([h1, h2])
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p[0])
        sender = h1.udp.bind(0)
        for i in range(4):
            sender.sendto(bytes([i]), h2.ip, 9)
        sim.run_until(seconds(1))
        assert got == [0, 1, 2, 3]

    def test_cleared_table_takes_the_arp_path(self, sim):
        """install_arp empties the static table through its owner, so the
        first packet must be resolved on the wire, not from a stale entry."""
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1, h2])
        for host, peer in ((h1, h2), (h2, h1)):
            assert host.ip_layer.resolve(host.ip) == host.mac
            with pytest.raises(StackError):
                host.ip_layer.resolve(peer.ip)
        h2.udp.bind(9)
        h1.udp.bind(0).sendto(b"hi", h2.ip, 9)
        sim.run_until(seconds(1))
        assert services["node1"].requests_sent == 1
        assert h1.ip_layer.resolve(h2.ip) == h2.mac  # learned, in the one table

    def test_unresolvable_gives_up_and_drops(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1])  # h2 does not answer ARP
        h1.ip_layer.clear_neighbors()
        sender = h1.udp.bind(0)
        sender.sendto(b"void", "192.168.1.99", 9)
        sim.run_until(seconds(2))
        svc = services["node1"]
        assert svc.resolution_failures == 1
        assert svc.requests_sent == svc.max_requests
        assert svc.packets_dropped >= 1
        assert not sim.queue  # no retry leak

    def test_pending_queue_bounded(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        services = install_arp([h1], pending_limit=3)
        sender = h1.udp.bind(0)
        for i in range(10):
            sender.sendto(bytes([i]), "192.168.1.99", 9)
        assert services["node1"].packets_dropped == 7


class TestArpUnderFaults:
    def test_dropped_replies_delay_resolution(self, sim):
        """A layer eating the first two ARP replies forces retries —

        exactly the failure mode a VirtualWire script would inject.
        """

        class ReplyEater(FrameLayer):
            def __init__(self):
                super().__init__("reply-eater")
                self.eaten = 0

            def on_receive(self, frame_bytes):
                if (
                    len(frame_bytes) > 21
                    and frame_bytes[12:14] == b"\x08\x06"
                    and frame_bytes[20:22] == b"\x00\x02"
                    and self.eaten < 2
                ):
                    self.eaten += 1
                    return
                self.pass_up(frame_bytes)

        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        eater = ReplyEater()
        h1.chain.splice_below_ip(eater)
        services = install_arp([h1, h2], retry_ns=ms(50))
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(sim.now)
        h1.udp.bind(0).sendto(b"x", h2.ip, 9)
        sim.run_until(seconds(2))
        assert eater.eaten == 2
        assert services["node1"].requests_sent == 3
        assert got and got[0] >= ms(100)  # two retry periods of stall
