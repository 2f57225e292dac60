"""Tests for NICs, links, hubs and switches: timing, drops, bit errors."""

import pytest

from repro.errors import TopologyError
from repro.net import Hub, MacAddress, Nic, PointToPointLink
from repro.net.switch import LearningSwitch
from repro.net.topology import Topology
from repro.sim import Simulator
from tests.oracles.codec import EthernetFrame

M1 = "02:00:00:00:00:01"
M2 = "02:00:00:00:00:02"
M3 = "02:00:00:00:00:03"


def frame_bytes(dst: str, src: str, size: int = 100) -> bytes:
    return EthernetFrame(dst, src, 0x0800, bytes(size - 14)).to_bytes()


def rig_link(sim, **kwargs):
    link = PointToPointLink(sim, "l0", **kwargs)
    n1, n2 = Nic(sim, M1), Nic(sim, M2)
    link.attach(n1)
    link.attach(n2)
    inbox1, inbox2 = [], []
    n1.set_receive_handler(lambda data: inbox1.append((sim.now, data)))
    n2.set_receive_handler(lambda data: inbox2.append((sim.now, data)))
    return link, n1, n2, inbox1, inbox2


class TestNic:
    def test_address_filtering(self, sim):
        link, n1, n2, inbox1, inbox2 = rig_link(sim)
        n1.transmit(frame_bytes(M3, M1))  # addressed to a third station
        sim.run()
        assert inbox2 == []
        assert n2.filtered_frames == 1

    def test_broadcast_accepted(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim)
        n1.transmit(frame_bytes("ff:ff:ff:ff:ff:ff", M1))
        sim.run()
        assert len(inbox2) == 1

    def test_promiscuous_accepts_everything(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim)
        n2.promiscuous = True
        n1.transmit(frame_bytes(M3, M1))
        sim.run()
        assert len(inbox2) == 1

    def test_down_nic_neither_sends_nor_receives(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim)
        n2.bring_down()
        n1.transmit(frame_bytes(M2, M1))
        sim.run()
        assert inbox2 == [] and n2.down_drops == 1
        n2.bring_up()
        n1.transmit(frame_bytes(M2, M1))
        sim.run()
        assert len(inbox2) == 1

    def test_counters(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim)
        n1.transmit(frame_bytes(M2, M1, size=200))
        sim.run()
        assert n1.tx_frames == 1 and n1.tx_bytes == 200
        assert n2.rx_frames == 1 and n2.rx_bytes == 200

    def test_double_attach_rejected(self, sim):
        link = PointToPointLink(sim, "l0")
        nic = Nic(sim, M1)
        link.attach(nic)
        with pytest.raises(TopologyError):
            PointToPointLink(sim, "l1").attach(nic)


class TestLinkTiming:
    def test_serialization_plus_propagation(self, sim):
        # 1000 bytes at 100 Mbps = 80 us, plus 1 us propagation.
        link, n1, n2, _, inbox2 = rig_link(
            sim, bandwidth_bps=100_000_000, propagation_ns=1_000
        )
        n1.transmit(frame_bytes(M2, M1, size=1000))
        sim.run()
        assert inbox2[0][0] == 81_000

    def test_back_to_back_frames_serialise(self, sim):
        link, n1, n2, _, inbox2 = rig_link(
            sim, bandwidth_bps=100_000_000, propagation_ns=0
        )
        n1.transmit(frame_bytes(M2, M1, size=1000))
        n1.transmit(frame_bytes(M2, M1, size=1000))
        sim.run()
        assert [t for t, _ in inbox2] == [80_000, 160_000]

    def test_full_duplex_no_contention(self, sim):
        link, n1, n2, inbox1, inbox2 = rig_link(
            sim, bandwidth_bps=100_000_000, propagation_ns=0
        )
        n1.transmit(frame_bytes(M2, M1, size=1000))
        n2.transmit(frame_bytes(M1, M2, size=1000))
        sim.run()
        # Opposite directions do not queue behind each other.
        assert inbox1[0][0] == 80_000 and inbox2[0][0] == 80_000

    def test_queue_overflow_drops(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim, queue_frames=2)
        for _ in range(10):
            n1.transmit(frame_bytes(M2, M1, size=1000))
        sim.run()
        # 1 transmitting + 2 queued survive; 7 tail-dropped.
        assert len(inbox2) == 3

    def test_third_station_rejected(self, sim):
        link, n1, n2, _, _ = rig_link(sim)
        with pytest.raises(TopologyError):
            link.attach(Nic(sim, M3))


class TestBitErrors:
    def test_corrupted_frames_dropped_by_fcs(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim, bit_error_rate=1e-4, queue_frames=256)
        for _ in range(200):
            n1.transmit(frame_bytes(M2, M1, size=500))
        sim.run()
        assert n2.fcs_drops > 0
        assert len(inbox2) + n2.fcs_drops == 200

    def test_zero_ber_is_lossless(self, sim):
        link, n1, n2, _, inbox2 = rig_link(sim, bit_error_rate=0.0)
        for _ in range(100):
            n1.transmit(frame_bytes(M2, M1))
        sim.run()
        assert len(inbox2) == 100 and n2.fcs_drops == 0


class TestHub:
    def test_broadcast_domain(self, sim):
        hub = Hub(sim, "h0")
        nics = [Nic(sim, m) for m in (M1, M2, M3)]
        inboxes = {m: [] for m in (M1, M2, M3)}
        for nic, mac in zip(nics, (M1, M2, M3)):
            hub.attach(nic)
            nic.promiscuous = True
            nic.set_receive_handler(lambda d, m=mac: inboxes[m].append(d))
        nics[0].transmit(frame_bytes(M2, M1))
        sim.run()
        assert len(inboxes[M2]) == 1
        assert len(inboxes[M3]) == 1  # hubs flood everyone
        assert inboxes[M1] == []  # but not the sender

    def test_shared_transmitter_serialises_all_stations(self, sim):
        hub = Hub(sim, "h0", bandwidth_bps=100_000_000, propagation_ns=0)
        n1, n2, n3 = Nic(sim, M1), Nic(sim, M2), Nic(sim, M3)
        arrivals = []
        for nic in (n1, n2, n3):
            hub.attach(nic)
        n3.set_receive_handler(lambda d: arrivals.append(sim.now))
        # Two stations transmit at once: the second must wait.
        n1.transmit(frame_bytes(M3, M1, size=1000))
        n2.transmit(frame_bytes(M3, M2, size=1000))
        sim.run()
        assert arrivals == [80_000, 160_000]


class TestSwitch:
    def rig(self, sim):
        switch = LearningSwitch(sim, "sw0", forwarding_ns=0, propagation_ns=0)
        nics = [Nic(sim, m) for m in (M1, M2, M3)]
        inboxes = []
        for nic in nics:
            switch.attach(nic)
            inbox = []
            nic.set_receive_handler(lambda d, box=inbox: box.append(d))
            inboxes.append(inbox)
        return switch, nics, inboxes

    def test_learning_stops_flooding(self, sim):
        switch, nics, inboxes = self.rig(sim)
        nics[2].promiscuous = True  # a bystander's inbox shows every flood
        # First frame to an unknown destination floods.
        nics[0].transmit(frame_bytes(M2, M1))
        sim.run()
        assert [len(inbox) for inbox in inboxes] == [0, 1, 1]
        # The reply teaches the switch where M1 is; M2 is now known too, so
        # neither the reply nor the next frame reaches the bystander.
        nics[1].transmit(frame_bytes(M1, M2))
        sim.run()
        nics[0].transmit(frame_bytes(M2, M1))
        sim.run()
        assert [len(inbox) for inbox in inboxes] == [1, 2, 1]
        learned = {str(MacAddress(mac)): port for mac, port in switch._mac_table.items()}
        assert learned == {M1: 0, M2: 1}

    def test_flooding_respects_ingress(self, sim):
        switch, nics, inboxes = self.rig(sim)
        nics[0].transmit(frame_bytes("ff:ff:ff:ff:ff:ff", M1))
        sim.run()
        assert len(inboxes[1]) == 1 and len(inboxes[2]) == 1
        assert inboxes[0] == []

    def test_full_duplex_ports(self, sim):
        switch, nics, inboxes = self.rig(sim)
        # Teach the table both stations.
        nics[0].transmit(frame_bytes(M2, M1))
        nics[1].transmit(frame_bytes(M1, M2))
        sim.run()
        start = sim.now
        nics[0].transmit(frame_bytes(M2, M1, size=1000))
        nics[1].transmit(frame_bytes(M1, M2, size=1000))
        sim.run()
        # Independent egress queues: both arrive one serialisation later.
        assert len(inboxes[0]) >= 2 and len(inboxes[1]) >= 2


class TestTopology:
    def test_duplicate_names_rejected(self, sim):
        topo = Topology(sim)
        topo.add_switch("x")
        with pytest.raises(TopologyError):
            topo.add_hub("x")

    def test_unknown_medium(self, sim):
        topo = Topology(sim)
        with pytest.raises(TopologyError):
            topo.medium("nope")

    def test_validate_incomplete_link(self, sim):
        topo = Topology(sim)
        topo.add_link("l0")
        topo.connect("l0", Nic(sim, M1))
        with pytest.raises(TopologyError):
            topo.validate()

    def test_validate_unattached_nic(self, sim):
        topo = Topology(sim)
        topo.add_switch("sw")
        loose = Nic(sim, M1)
        with pytest.raises(TopologyError):
            topo.validate([loose])
