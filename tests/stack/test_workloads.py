"""Tests for the traffic generators."""

from repro.sim import Simulator, ms, seconds
from repro.stack import FREE
from repro.workloads import (
    BulkReceiver,
    BulkSender,
    EchoClient,
    EchoServer,
    OnOffSource,
    PacedSender,
)
from tests.conftest import make_two_hosts


class TestEcho:
    def test_ping_pong_measures_rtts(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        EchoServer(h2)
        client = EchoClient(h1, h2.ip, probes=20, payload_size=200)
        client.start()
        sim.run_until(seconds(5))
        assert client.done
        assert len(client.rtts_ns) == 20
        assert client.timeouts == 0
        assert client.mean_rtt_ns > 0
        # Ping-pong: RTTs on an idle wire are essentially identical.
        assert max(client.rtts_ns) - min(client.rtts_ns) < 1000

    def test_timeout_path(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        # No server bound: every probe times out.
        client = EchoClient(h1, h2.ip, probes=3, timeout_ns=ms(10))
        client.start()
        sim.run_until(seconds(2))
        assert client.done
        assert client.timeouts == 3
        assert client.rtts_ns == []

    def test_on_done_callback(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        EchoServer(h2)
        client = EchoClient(h1, h2.ip, probes=2)
        fired = []
        client.on_done = lambda: fired.append(sim.now)
        client.start()
        sim.run_until(seconds(2))
        assert fired

    def test_server_echo_count(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        server = EchoServer(h2)
        client = EchoClient(h1, h2.ip, probes=7)
        client.start()
        sim.run_until(seconds(2))
        assert server.echoed == 7


class TestBulk:
    def test_bulk_transfer_completes(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        receiver = BulkReceiver(h2, 0x4000)
        BulkSender(h1, h2.ip, 0x4000, 128 * 1024, local_port=0x6000)
        sim.run_until(seconds(10))
        assert receiver.bytes_received == 128 * 1024

    def test_goodput_measured_over_active_window(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        receiver = BulkReceiver(h2, 0x4000)
        BulkSender(h1, h2.ip, 0x4000, 256 * 1024)
        sim.run_until(seconds(10))
        goodput = receiver.goodput_bps()
        assert 10e6 < goodput < 100e6  # sane for a 100 Mbps link

    def test_retain_mode_keeps_bytes(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        receiver = BulkReceiver(h2, 80)
        receiver.retain = True
        BulkSender(h1, h2.ip, 80, 4096)
        sim.run_until(seconds(5))
        assert bytes(receiver.data) == bytes(4096)


class TestPaced:
    def test_offered_rate_respected(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        receiver = BulkReceiver(h2, 0x4000)
        sender = PacedSender(
            h1, h2.ip, 0x4000, offered_bps=20e6, duration_ns=ms(100)
        )
        sim.run_until(seconds(5))
        # 20 Mbps for 100 ms = 250 KB offered; all of it fits the pipe.
        assert receiver.bytes_received == sender.offered_bytes
        offered_rate = sender.offered_bytes * 8 / 0.1
        assert offered_rate < 21e6

    def test_overload_refuses_at_buffer_cap(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        BulkReceiver(h2, 0x4000)
        sender = PacedSender(
            h1,
            h2.ip,
            0x4000,
            offered_bps=500e6,  # 5x the wire
            duration_ns=ms(50),
        )
        sender.buffer_cap = 32 * 1024
        sim.run_until(seconds(5))
        assert sender.refused_bytes > 0


class TestOnOff:
    def test_bursty_emission(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(sim.now)
        source = OnOffSource(h1, h2.ip, 9, rate_pps=2000)
        source.start()
        sim.run_until(ms(200))
        source.stop()
        count_at_stop = len(got)
        assert count_at_stop > 0
        sim.run_until(ms(400))
        assert len(got) <= count_at_stop + 1  # stop() quenches the source

    def test_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            _, h1, h2 = make_two_hosts(sim, costs=FREE)
            got = []
            h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(sim.now)
            source = OnOffSource(h1, h2.ip, 9)
            source.start()
            sim.run_until(ms(100))
            return got

        assert run(5) == run(5)
        assert run(5) != run(6)
