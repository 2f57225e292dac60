"""Tests for Rether node recovery and rejoin (JOIN messages)."""

import pytest

from repro.errors import RetherError
from repro.rether.messages import HEADER, TYPE_JOIN, encode_frame
from repro.sim import ms, seconds
from tests.conftest import every
from tests.rether.test_rether import build_ring


class TestJoinMessage:
    def test_join_roundtrip(self):
        wire = encode_frame(b"\xff" * 6, bytes(6), TYPE_JOIN, generation=2, seq=0)
        assert HEADER.unpack_from(wire, 14) == (TYPE_JOIN, 2, 0, 0)


class TestRejoin:
    def crash_and_recover(self):
        sim, hosts, layers = build_ring()
        sim.run_until(ms(20))
        victim = hosts[2]  # node3
        victim.fail()
        sim.run_until(ms(600))
        assert layers["node2"].evicted(victim.mac)
        victim.is_alive = True  # back from FAIL, no amnesia
        victim.nic.bring_up()
        victim.rether.rejoin()
        return sim, hosts, layers, victim

    def test_rejoin_reinstates_ring_views(self):
        sim, hosts, layers, victim = self.crash_and_recover()
        sim.run_until(ms(700))
        assert not layers["node2"].evicted(victim.mac)
        assert len(layers["node2"].ring) == 4
        assert layers["node2"].joins_accepted == 1

    def test_token_reaches_rejoined_node(self):
        sim, hosts, layers, victim = self.crash_and_recover()
        tokens_before = victim.rether.tokens_received
        sim.run_until(seconds(2))
        assert victim.rether.tokens_received > tokens_before

    def test_rejoined_node_carries_data_again(self):
        sim, hosts, layers, victim = self.crash_and_recover()
        sim.run_until(ms(700))
        got = []
        hosts[0].udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        victim.udp.bind(0).sendto(b"back from the dead", hosts[0].ip, 9)
        sim.run_until(seconds(3))
        assert got == [b"back from the dead"]

    def test_single_token_after_rejoin(self):
        """Rejoin must not inject a second token into the ring."""
        sim, hosts, layers, victim = self.crash_and_recover()
        violations = []

        def check():
            holders = [
                l
                for l in layers.values()
                if l.holding_token and l._handoff_msg is None
            ]
            if len(holders) > 1:
                violations.append(sim.now)

        every(sim, ms(1), check)
        sim.run_until(seconds(2))
        assert violations == []

    def test_rejoin_requires_alive_host(self):
        sim, hosts, layers = build_ring()
        sim.run_until(ms(20))
        hosts[2].fail()
        sim.run_until(ms(100))
        with pytest.raises(RetherError):
            hosts[2].rether.rejoin()

    def test_join_from_stranger_ignored(self):
        sim, hosts, layers = build_ring()
        sim.run_until(ms(20))
        stranger = bytes.fromhex("020000000077")
        layers["node1"].on_receive(encode_frame(b"\xff" * 6, stranger, TYPE_JOIN, 0, 0))
        assert layers["node1"].joins_accepted == 0
        assert len(layers["node1"].ring) == 4
