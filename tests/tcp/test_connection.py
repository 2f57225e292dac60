"""End-to-end tests of the TCP state machine over a simulated LAN.

A loss-injecting frame layer stands in for VirtualWire here, so these
tests cover TCP recovery behaviour without depending on the engine.
"""

import pytest

from repro.errors import SocketError, TcpError
from repro.net.packet import FrameView
from repro.sim import Simulator, ms, seconds
from repro.stack import FREE
from repro.stack.layers import FrameLayer
from repro.net.tcp_segment import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.tcp import TcpState
from repro.tcp.connection import _SentSegment
from tests.conftest import make_two_hosts


class LossLayer(FrameLayer):
    """Drops selected TCP segments (by 1-based data-segment index)."""

    def __init__(self, drop_data_indices=(), drop_synack=0):
        super().__init__("loss")
        self.drop_data_indices = set(drop_data_indices)
        self.drop_synack_remaining = drop_synack
        self._data_seen = 0

    def on_receive(self, frame_bytes: bytes) -> None:
        view = FrameView(frame_bytes)
        seg = view.tcp
        if seg is not None:
            if seg.is_syn and seg.is_ack and self.drop_synack_remaining > 0:
                self.drop_synack_remaining -= 1
                return
            if seg.payload:
                self._data_seen += 1
                if self._data_seen in self.drop_data_indices:
                    return
        self.pass_up(frame_bytes)


def rig(sim, loss_layer=None, congestion=None, transfer=16 * 1024):
    _, h1, h2 = make_two_hosts(sim, costs=FREE)
    if loss_layer is not None:
        h2.chain.splice_below_ip(loss_layer)
    received = bytearray()
    accepted = []

    def on_accept(conn):
        conn.on_data = received.extend
        accepted.append(conn)

    h2.tcp.listen(0x4000, on_accept)
    conn = h1.tcp.connect(h2.ip, 0x4000, local_port=0x6000, congestion=congestion)
    data = bytes(range(256)) * (transfer // 256)
    conn.on_established = lambda: conn.send(data)
    return h1, h2, conn, data, received, accepted


class TestHandshake:
    def test_three_way_handshake(self, sim):
        h1, h2, conn, data, received, accepted = rig(sim, transfer=256)
        sim.run_until(seconds(2))
        assert conn.state is TcpState.ESTABLISHED
        assert accepted and accepted[0].state is TcpState.ESTABLISHED

    def test_synack_loss_recovers_via_syn_retransmission(self, sim):
        h1, h2, conn, data, received, _ = rig(
            sim, loss_layer=None, transfer=1024
        )
        h1.chain.splice_below_ip(LossLayer(drop_synack=1))
        sim.run_until(seconds(5))
        assert conn.state is TcpState.ESTABLISHED
        assert conn.retransmissions == 1
        # The paper's precondition: retransmission resets the window model.
        assert conn.congestion.ssthresh == 2
        assert bytes(received) == data

    def test_isn_varies_between_connections(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h2.tcp.listen(80)
        a = h1.tcp.connect(h2.ip, 80)
        b = h1.tcp.connect(h2.ip, 80)
        assert a.iss != b.iss


class TestDataTransfer:
    def test_bulk_delivery_intact(self, sim):
        h1, h2, conn, data, received, _ = rig(sim, transfer=64 * 1024)
        sim.run_until(seconds(10))
        assert bytes(received) == data
        assert conn.retransmissions == 0

    def test_ack_clocking_grows_window(self, sim):
        h1, h2, conn, data, received, _ = rig(sim, transfer=32 * 1024)
        sim.run_until(seconds(10))
        # 32 segments acked in slow start: cwnd = 1 + 32.
        assert conn.congestion.cwnd == 33

    def test_lost_data_segment_retransmitted(self, sim):
        h1, h2, conn, data, received, _ = rig(
            sim, loss_layer=LossLayer(drop_data_indices={5}), transfer=32 * 1024
        )
        sim.run_until(seconds(10))
        assert bytes(received) == data
        assert conn.retransmissions >= 1
        # Tahoe: the retransmission reset the window model.
        assert conn.congestion.ssthresh >= 2

    def test_fast_retransmit_fires_on_dupacks(self, sim):
        # Drop a segment deep enough in the transfer that the window is
        # wide and at least three later segments generate duplicate acks.
        h1, h2, conn, data, received, _ = rig(
            sim, loss_layer=LossLayer(drop_data_indices={20}), transfer=64 * 1024
        )
        sim.run_until(seconds(10))
        assert bytes(received) == data
        assert conn.fast_retransmits >= 1
        # Fast retransmit should beat the 1 s timeout by a wide margin.
        assert conn.timeout_retransmits == 0

    def test_reno_keeps_more_window_than_tahoe_after_fast_rtx(self, sim):
        from repro.sim import Simulator
        from repro.tcp import RenoCongestionControl

        def run(congestion):
            local_sim = Simulator(seed=8)
            h1, h2, conn, data, received, _ = rig(
                local_sim,
                loss_layer=LossLayer(drop_data_indices={20}),
                congestion=congestion,
                transfer=64 * 1024,
            )
            local_sim.run_until(seconds(10))
            assert bytes(received) == data
            assert conn.fast_retransmits >= 1
            return conn.congestion.cwnd

        reno_cwnd = run(RenoCongestionControl())
        tahoe_cwnd = run(None)  # default Tahoe
        assert reno_cwnd > tahoe_cwnd

    def test_out_of_order_buffered_not_dropped(self, sim):
        h1, h2, conn, data, received, _ = rig(
            sim, loss_layer=LossLayer(drop_data_indices={2}), transfer=16 * 1024
        )
        sim.run_until(seconds(10))
        assert bytes(received) == data
        server = received  # delivery in order despite the gap
        assert conn.segments_sent < 40  # no pathological retransmission storm

    def test_send_before_establishment_queues(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = bytearray()
        h2.tcp.listen(80, lambda c: setattr(c, "on_data", got.extend))
        conn = h1.tcp.connect(h2.ip, 80)
        conn.send(b"early data")  # queued while SYN_SENT
        sim.run_until(seconds(2))
        assert bytes(got) == b"early data"


class TestAckBookkeeping:
    """``_unacked`` is in send order: an ACK drops its acked prefix and takes
    at most one RTT sample, never from a retransmitted segment (Karn)."""

    def test_end_seq_counts_payload_and_phantom_bytes(self):
        assert _SentSegment(100, b"", FLAG_SYN, 0).end_seq == 101
        assert _SentSegment(100, b"abc", FLAG_ACK, 0).end_seq == 103
        assert _SentSegment(100, b"", FLAG_FIN | FLAG_ACK, 0).end_seq == 101
        assert _SentSegment(0xFFFFFFFE, b"abcd", FLAG_ACK, 0).end_seq == 2  # wraps

    def test_ack_drops_the_prefix_and_samples_first_clean_segment(self, sim):
        _, _, conn, _, _, _ = rig(sim)
        sim.run_until(ms(50))
        sent = [_SentSegment(1000 * i, bytes(1000), FLAG_ACK, 10 * i) for i in range(1, 6)]
        sent[0].retransmitted = True  # Karn: its RTT is ambiguous
        conn._unacked = list(sent)
        samples = []
        conn.estimator.on_measurement = samples.append
        conn._ack_unacked_through(3500)  # covers the first two, half of the third
        assert conn._unacked == sent[2:]
        assert samples == [sim.now - sent[1].sent_at]  # one sample, from the clean one
        conn._ack_unacked_through(3500)  # a duplicate ACK changes nothing
        assert conn._unacked == sent[2:] and len(samples) == 1
        conn._ack_unacked_through(6000)
        assert conn._unacked == [] and len(samples) == 2


class TestTeardown:
    def test_graceful_close_both_directions(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        server_conns = []

        def on_accept(conn):
            server_conns.append(conn)
            conn.on_remote_close = conn.close  # close when the client does

        h2.tcp.listen(80, on_accept)
        conn = h1.tcp.connect(h2.ip, 80)
        conn.on_established = lambda: (conn.send(b"bye"), conn.close())
        sim.run_until(seconds(10))
        assert conn.state is TcpState.CLOSED
        assert server_conns[0].state is TcpState.CLOSED

    def test_fin_waits_for_buffered_data(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        got = bytearray()
        h2.tcp.listen(80, lambda c: setattr(c, "on_data", got.extend))
        conn = h1.tcp.connect(h2.ip, 80)
        payload = bytes(8 * 1024)

        def go():
            conn.send(payload)
            conn.close()

        conn.on_established = go
        sim.run_until(seconds(10))
        assert len(got) == len(payload)

    def test_send_after_close_rejected(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h2.tcp.listen(80)
        conn = h1.tcp.connect(h2.ip, 80)
        sim.run_until(seconds(1))
        conn.close()
        with pytest.raises(TcpError):
            conn.send(b"late")

    def test_abort_sends_rst(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        resets = []
        server_conns = []

        def on_accept(conn):
            server_conns.append(conn)
            conn.on_reset = lambda: resets.append(True)

        h2.tcp.listen(80, on_accept)
        conn = h1.tcp.connect(h2.ip, 80)
        sim.run_until(seconds(1))
        conn.abort()
        sim.run_until(seconds(2))
        assert conn.state is TcpState.CLOSED
        assert resets == [True]


class TestLayerBehaviour:
    def test_segment_to_closed_port_gets_rst(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        conn = h1.tcp.connect(h2.ip, 4444)  # nobody listens there
        resets = []
        conn.on_reset = lambda: resets.append(True)
        sim.run_until(seconds(2))
        assert resets == [True]
        assert conn.state is TcpState.CLOSED

    @pytest.mark.parametrize("port", [70000, -5, 0])
    def test_out_of_range_listen_refused(self, sim, port):
        _, h1, _ = make_two_hosts(sim, costs=FREE)
        with pytest.raises(SocketError):
            h1.tcp.listen(port)
        assert h1.tcp._listeners == {}

    @pytest.mark.parametrize(
        "remote_port, local_port", [(70000, 0), (-1, 0), (80, 70000), (80, -3)]
    )
    def test_out_of_range_connect_leaves_no_state(self, sim, remote_port, local_port):
        """A bad port is refused before a connection, an ephemeral port or a
        SYN exists: the demux table stays empty."""
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        next_ephemeral = h1.tcp._next_ephemeral
        with pytest.raises(SocketError):
            h1.tcp.connect(h2.ip, remote_port, local_port=local_port)
        assert h1.tcp.connections() == []
        assert h1.tcp._next_ephemeral == next_ephemeral
        sim.run()
        assert h1.ip_layer.tx_packets == 0

    def test_connection_table_cleanup(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        h2.tcp.listen(80, lambda c: setattr(c, "on_remote_close", c.close))
        conn = h1.tcp.connect(h2.ip, 80)
        conn.on_established = conn.close
        sim.run_until(seconds(30))
        assert h1.tcp.connections() == []
        assert h2.tcp.connections() == []

    def test_listener_close_stops_accepting(self, sim):
        _, h1, h2 = make_two_hosts(sim, costs=FREE)
        listener = h2.tcp.listen(80)
        listener.close()
        conn = h1.tcp.connect(h2.ip, 80)
        resets = []
        conn.on_reset = lambda: resets.append(True)
        sim.run_until(seconds(2))
        assert resets == [True]

    def test_checksum_corruption_dropped(self, sim):
        class Corruptor(FrameLayer):
            def __init__(self):
                super().__init__("corrupt")
                self.count = 0

            def on_receive(self, frame_bytes):
                view = FrameView(frame_bytes)
                if view.tcp is not None and view.tcp.payload and self.count == 0:
                    self.count += 1
                    mutated = bytearray(frame_bytes)
                    mutated[60] ^= 0xFF  # flip payload bits, keep headers
                    self.pass_up(bytes(mutated))
                    return
                self.pass_up(frame_bytes)

        sim2 = Simulator(seed=3)
        _, h1, h2 = make_two_hosts(sim2, costs=FREE)
        h2.chain.splice_below_ip(Corruptor())
        got = bytearray()
        h2.tcp.listen(80, lambda c: setattr(c, "on_data", got.extend))
        conn = h1.tcp.connect(h2.ip, 80)
        data = bytes(range(256)) * 16
        conn.on_established = lambda: conn.send(data)
        sim2.run_until(seconds(10))
        assert h2.tcp.checksum_drops == 1
        assert bytes(got) == data  # retransmission healed the corruption
