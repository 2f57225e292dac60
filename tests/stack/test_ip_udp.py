"""Tests for the IP layer and UDP sockets."""

import pytest

from repro.errors import SocketError, StackError
from repro.stack import FREE
from repro.stack.costs import CostModel
from tests.conftest import make_two_hosts


class TestIpLayer:
    def test_neighbor_resolution(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        assert h1.ip_layer.resolve(h2.ip) == h2.mac

    def test_unknown_neighbor_raises(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        with pytest.raises(StackError):
            h1.ip_layer.resolve("10.99.99.99")

    def test_misaddressed_packets_dropped(self, sim):
        """A packet whose IP dst is not ours is dropped even if the MAC

        matched (e.g. a stale neighbour entry elsewhere).
        """
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h1.ip_layer.add_neighbor("192.168.1.77", h2.mac)  # lies!
        h1.ip_layer.send("192.168.1.77", 17, b"junk")
        sim.run()
        assert h2.ip_layer.misaddressed_drops == 1

    def test_rebinding_a_neighbor_repoints_the_very_next_frame(self, sim):
        """One table, one owner: nothing caches the old MAC beside it."""
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        sent = []
        h1.chain.demux.send_frame_bytes = sent.append
        h1.ip_layer.send(h2.ip, 17, b"before")
        h1.ip_layer.add_neighbor(h2.ip, "02:00:00:00:00:99")
        h1.ip_layer.send(h2.ip, 17, b"after")
        assert [frame[:6].hex(":") for frame in sent] == [str(h2.mac), "02:00:00:00:00:99"]
        assert h1.ip_layer.resolve(str(h2.ip)) == h1.ip_layer.resolve(h2.ip.packed)

    def test_failed_resolution_still_consumes_the_ident(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        sent = []
        h1.chain.demux.send_frame_bytes = sent.append
        with pytest.raises(StackError):
            h1.ip_layer.send("10.99.99.99", 17, b"lost")
        h1.ip_layer.send(h2.ip, 17, b"second")
        assert int.from_bytes(sent[0][18:20], "big") == 2

    def test_unclaimed_protocol_dropped(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h1.ip_layer.send(h2.ip, 123, b"proto-mystery")
        sim.run()
        assert h2.ip_layer.unclaimed_protocol_drops == 1

    def test_duplicate_protocol_registration_rejected(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        with pytest.raises(StackError):
            h1.ip_layer.register_protocol(17, lambda p: None)  # UDP owns 17

    def test_ip_cost_charged(self):
        from repro.sim import Simulator

        sim = Simulator(seed=0)
        costs = CostModel(
            driver_tx_ns=0, driver_rx_ns=0, ip_ns=10_000, udp_ns=0, tcp_ns=0
        )
        _, h1, h2 = make_two_hosts(sim, costs=costs)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(sim.now)
        h1.udp.bind(0).sendto(b"x", h2.ip, 9)
        sim.run()
        # Two IP traversals of 10 us each, plus wire time.
        assert got and got[0] >= 20_000


class TestUdpSockets:
    def test_datagram_delivery_with_source(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append((p, str(ip), port))
        h1.udp.bind(5555).sendto(b"hello", h2.ip, 9)
        sim.run()
        assert got == [(b"hello", "192.168.1.1", 5555)]

    def test_double_bind_rejected(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        h1.udp.bind(9)
        with pytest.raises(SocketError):
            h1.udp.bind(9)

    def test_rebind_after_close(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        sock = h1.udp.bind(9)
        sock.close()
        h1.udp.bind(9)  # no error

    def test_send_on_closed_socket_rejected(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        sock = h1.udp.bind(0)
        sock.close()
        with pytest.raises(SocketError):
            sock.sendto(b"x", h2.ip, 9)

    def test_ephemeral_ports_unique(self, sim):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        ports = {h1.udp.bind(0).port for _ in range(50)}
        assert len(ports) == 50
        assert all(p >= 49152 for p in ports)

    def test_unclaimed_port_counted(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h1.udp.bind(0).sendto(b"x", h2.ip, 4444)
        sim.run()
        assert h2.udp.unclaimed_port_drops == 1

    def test_socket_counters(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        server = h2.udp.bind(9)
        client = h1.udp.bind(0)
        for _ in range(3):
            client.sendto(b"x", h2.ip, 9)
        sim.run()
        assert client.tx_datagrams == 3
        assert server.rx_datagrams == 3
