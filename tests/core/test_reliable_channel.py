"""Unit tests for the control-plane ARQ layer (repro.core.reliable).

The channel is exercised in isolation: a fake transmit function records
what would hit the wire, and the test plays the peer's side by feeding
frames back through ``on_frame``.
"""

import pytest

from repro.core.control import FLAG_RELIABLE, ControlMessage, ControlType
from repro.core.engine import EngineStats
from repro.core.reliable import (
    INITIAL_RTO_NS,
    MAX_RETRIES,
    MAX_RTO_NS,
    ReliableControlPlane,
)
from repro.net.addresses import MacAddress
from repro.sim import Simulator, ms

PEER = MacAddress.from_index(2)
OTHER = MacAddress.from_index(3)


def inflight_count(channel, dst: MacAddress) -> int:
    state = channel._peers.get(dst.packed)
    return len(state.inflight) if state else 0


def peer_dead(channel, dst: MacAddress) -> bool:
    state = channel._peers.get(dst.packed)
    return state.dead if state else False


class Harness:
    def __init__(self, seed=1):
        self.sim = Simulator(seed=seed)
        self.stats = EngineStats()
        self.wire = []  # (dst, message) tuples, in send order
        self.channel = ReliableControlPlane(
            self.sim, lambda dst, msg: self.wire.append((dst, msg)), self.stats
        )

    def sent_to(self, dst):
        return [m for d, m in self.wire if d == dst]

    def ack(self, seq, src=PEER):
        """Play the peer ACKing one of our sequence numbers."""
        return self.channel.on_frame(src, ControlMessage(ControlType.ACK, seq=seq))


class TestSending:
    def test_sequences_are_per_peer_and_monotonic(self):
        h = Harness()
        m1 = h.channel.send(PEER, ControlMessage(ControlType.HEARTBEAT))
        m2 = h.channel.send(PEER, ControlMessage(ControlType.HEARTBEAT))
        m3 = h.channel.send(OTHER, ControlMessage(ControlType.HEARTBEAT))
        assert (m1.seq, m2.seq) == (1, 2)
        assert m3.seq == 1  # independent stream per peer
        assert all(m.flags & FLAG_RELIABLE for m in (m1, m2, m3))

    def test_unreliable_send_bypasses_sequencing(self):
        """The channel sends nothing unreliable but its ACKs; a ``flags ==
        0`` message fed in is delivered as is, with no ACK and no state."""
        h = Harness()
        raw = ControlMessage(ControlType.START, 1)
        assert raw.flags == 0 and not raw.reliable
        assert h.channel.on_frame(PEER, raw) == [raw]
        assert h.wire == []
        assert inflight_count(h.channel, PEER) == 0

    def test_ack_stops_retransmission_and_fires_callback(self):
        h = Harness()
        fired = []
        h.channel.send(PEER, ControlMessage(ControlType.START, 1), on_acked=lambda: fired.append(1))
        h.ack(1)
        assert fired == [1]
        assert inflight_count(h.channel, PEER) == 0
        h.sim.run_for(ms(500))
        assert h.stats.control_retransmits == 0
        assert len(h.sent_to(PEER)) == 1  # no ghost retransmits after the ACK

    def test_duplicate_ack_is_harmless(self):
        h = Harness()
        fired = []
        h.channel.send(PEER, ControlMessage(ControlType.START, 1), on_acked=lambda: fired.append(1))
        h.ack(1)
        h.ack(1)
        assert fired == [1]


class TestRetransmission:
    def test_unacked_message_retransmits_with_backoff(self):
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.sim.run_for(INITIAL_RTO_NS + 1)
        assert h.stats.control_retransmits == 1
        # Second retransmit only after the doubled RTO.
        h.sim.run_for(INITIAL_RTO_NS + 1)
        assert h.stats.control_retransmits == 1
        h.sim.run_for(INITIAL_RTO_NS)
        assert h.stats.control_retransmits == 2
        # Every copy on the wire is byte-identical (same seq).
        seqs = {m.seq for m in h.sent_to(PEER)}
        assert seqs == {1}

    def test_retry_exhaustion_declares_peer_dead(self):
        h = Harness()
        failures = []
        h.channel.on_peer_failed = failures.append
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.sim.run_for(ms(2000))  # far beyond the full backoff schedule
        assert h.stats.control_retransmits == MAX_RETRIES
        assert h.stats.control_peer_failures == 1
        assert failures == [PEER]
        assert peer_dead(h.channel, PEER)
        assert not peer_dead(h.channel, OTHER)

    def test_total_silence_budget_is_bounded(self):
        """The backoff schedule gives up within ~2x MAX_RTO_NS * MAX_RETRIES."""
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        budget = sum(min(INITIAL_RTO_NS * 2**i, MAX_RTO_NS) for i in range(MAX_RETRIES + 1))
        h.sim.run_for(budget + 1)
        assert peer_dead(h.channel, PEER)

    def test_sends_to_dead_peer_are_suppressed(self):
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.sim.run_for(ms(2000))
        wire_before = len(h.wire)
        h.channel.send(PEER, ControlMessage(ControlType.HEARTBEAT))
        assert len(h.wire) == wire_before
        assert h.stats.control_sends_suppressed == 1

    def test_late_ack_after_death_is_ignored(self):
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.sim.run_for(ms(2000))
        h.ack(1)  # peer's ACK finally limps in after we gave up
        assert peer_dead(h.channel, PEER)


class TestReceiving:
    def msg(self, seq, b=0):
        return ControlMessage(
            ControlType.COUNTER_UPDATE, a=1, b=b, seq=seq, flags=FLAG_RELIABLE
        )

    def test_in_order_delivery_and_ack(self):
        h = Harness()
        out = h.channel.on_frame(PEER, self.msg(1))
        assert [m.seq for m in out] == [1]
        acks = [m for _, m in h.wire if m.msg_type is ControlType.ACK]
        assert [a.seq for a in acks] == [1]
        assert h.stats.control_acks_sent == 1

    def test_duplicate_is_dropped_but_reacked(self):
        h = Harness()
        h.channel.on_frame(PEER, self.msg(1))
        out = h.channel.on_frame(PEER, self.msg(1))
        assert out == []
        assert h.stats.control_duplicates_dropped == 1
        # Both copies were ACKed: a lost ACK must not retransmit forever.
        acks = [m for _, m in h.wire if m.msg_type is ControlType.ACK]
        assert [a.seq for a in acks] == [1, 1]

    def test_out_of_order_parks_until_gap_fills(self):
        h = Harness()
        assert h.channel.on_frame(PEER, self.msg(2, b=20)) == []
        assert h.channel.on_frame(PEER, self.msg(3, b=30)) == []
        released = h.channel.on_frame(PEER, self.msg(1, b=10))
        assert [m.seq for m in released] == [1, 2, 3]
        assert [m.b for m in released] == [10, 20, 30]

    def test_parked_duplicate_counts_as_duplicate(self):
        h = Harness()
        h.channel.on_frame(PEER, self.msg(2))
        assert h.channel.on_frame(PEER, self.msg(2)) == []
        assert h.stats.control_duplicates_dropped == 1

    def test_unreliable_message_passes_straight_through(self):
        h = Harness()
        raw = ControlMessage(ControlType.COUNTER_UPDATE, a=1, b=5)
        assert h.channel.on_frame(PEER, raw) == [raw]
        assert h.stats.control_acks_sent == 0

    def test_peers_have_independent_receive_windows(self):
        h = Harness()
        assert [m.seq for m in h.channel.on_frame(PEER, self.msg(1))] == [1]
        assert [m.seq for m in h.channel.on_frame(OTHER, self.msg(1))] == [1]
        assert h.stats.control_duplicates_dropped == 0


class TestReset:
    def test_reset_cancels_timers_and_forgets_peers(self):
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.channel.reset()
        h.sim.run_for(ms(2000))
        assert h.stats.control_retransmits == 0
        assert not peer_dead(h.channel, PEER)
        # Sequencing starts over after a reset.
        m = h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        assert m.seq == 1

    def test_reset_revives_a_dead_peer(self):
        h = Harness()
        h.channel.send(PEER, ControlMessage(ControlType.START, 1))
        h.sim.run_for(ms(2000))
        assert peer_dead(h.channel, PEER)
        h.channel.reset()
        h.channel.send(PEER, ControlMessage(ControlType.HEARTBEAT))
        assert h.stats.control_sends_suppressed == 0
        assert inflight_count(h.channel, PEER) == 1
