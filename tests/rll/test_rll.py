"""Tests for the Reliable Link Layer: the "controlled environment" layer."""

import pytest

from repro.bench.fig7 import _tcp_script
from repro.bench.harness import RECEIVER_PORT, SENDER_PORT
from repro.core.testbed import Testbed
from repro.errors import PacketError
from repro.net.topology import Topology
from repro.rll import DEFAULT_WINDOW, RllLayer, KIND_ACK, KIND_DATA
from repro.rll.layer import DEFAULT_RTO_NS
from repro.rll.frames import SEQ_MOD, seq_diff
from repro.sim import Simulator, ms, seconds
from repro.stack import FREE, Host
from repro.workloads.bulk import BulkReceiver, PacedSender
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
        for other in (h1, h2):
            h.add_neighbor(other.ip, other.mac)
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
            for other in (h1, h2):
                h.add_neighbor(other.ip, other.mac)
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


class TestTimeoutFollowsTheMedium:
    """A full window of MTU frames takes 9.7 ms on a 10 Mbps medium.  With
    the fixed 2 ms timeout the RLL resent windows still in flight, the
    resends filled the medium's queue, and Fig 7's pump at 12 Mbps offered
    ended ``FAIL (node-unreachable)`` at 1.5 Mbps where the bare stack
    passes at 9.1 Mbps (2 060 retransmissions for 122 data frames)."""

    SLOW_BPS = 10_000_000

    @staticmethod
    def pump(medium, senders=1, offered_mbps=12):
        """*senders* hosts each offer *offered_mbps* of Fig 7's paced TCP
        to node1 for 200 ms, VirtualWire and the RLL on every host."""
        tb = Testbed(seed=0)
        hosts = [tb.add_host(f"node{i}") for i in range(1, senders + 2)]
        {"hub": tb.add_hub, "bus": tb.add_bus, "switch": tb.add_switch}[medium](
            "m0", bandwidth_bps=TestTimeoutFollowsTheMedium.SLOW_BPS
        )
        tb.connect("m0", *hosts)
        tb.install_virtualwire(control="node1", rll=True)
        sink = hosts[0]
        receivers = [BulkReceiver(sink, RECEIVER_PORT + i) for i in range(senders)]

        def workload():
            for i, host in enumerate(hosts[1:]):
                PacedSender(
                    host, sink.ip, RECEIVER_PORT + i, offered_bps=offered_mbps * 1e6,
                    duration_ns=ms(200), local_port=SENDER_PORT + i,
                )

        report = tb.run_scenario(
            _tcp_script(tb.node_table_fsl()), workload=workload, max_time=seconds(6),
            inactivity_ns=ms(200),
        )
        rlls = [tb.rll_layers[host.name] for host in hosts]
        goodput = sum(r.goodput_bps() for r in receivers) / 1e6
        return report, rlls, goodput

    @pytest.mark.parametrize("medium", ["hub", "bus"])
    def test_saturated_shared_medium_passes_without_retransmission(self, medium):
        report, rlls, goodput = self.pump(medium)
        assert report.passed, report.render()
        assert [rll.retransmissions for rll in rlls] == [0, 0]
        assert goodput > 8.0

    def test_switch_port_shared_by_two_senders_needs_no_retransmission(self):
        """Two senders offering 6 Mbps each converge on the sink's 10 Mbps
        port, where the acks for the sink's own frames queue behind their
        data: a 2 ms timeout resent 80 of the sink's frames still in flight."""
        report, rlls, goodput = self.pump("switch", senders=2, offered_mbps=6)
        assert report.passed, report.render()
        assert [rll.retransmissions for rll in rlls] == [0, 0, 0]
        assert goodput > 9.0

    def test_timeout_is_the_window_on_a_slow_medium_and_the_default_on_a_fast_one(self):
        for bandwidth, expected in ((10_000_000, 9_689_600), (100_000_000, DEFAULT_RTO_NS)):
            tb = Testbed(seed=0)
            hosts = [tb.add_host("node1"), tb.add_host("node2")]
            tb.add_hub("m0", bandwidth_bps=bandwidth)
            tb.connect("m0", *hosts)
            rll = RllLayer(tb.sim)
            hosts[0].chain.splice_above_driver(rll)
            assert rll._peer(hosts[1].mac).rto_ns == expected
