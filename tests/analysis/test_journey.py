"""Unit tests for frame digests and journey correlation."""

import pytest

from repro.analysis import correlate_journeys, frame_digest
from repro.core.audit import AuditLog
from repro.net.tcp_segment import TcpSegment
from repro.sim import Simulator
from repro.trace import TraceRecorder
from tests.oracles.codec import build_tcp_frame, build_udp_frame

MACS = ("02:00:00:00:00:01", "02:00:00:00:00:02")
IPS = ("192.168.1.1", "192.168.1.2")

FLAG_SYN = 0x02
FLAG_ACK = 0x10


def tcp_bytes(seq=100, ack=0, flags=FLAG_SYN, payload=b"", ident=1):
    seg = TcpSegment(0x6000, 0x4000, seq, ack, flags, 65535, payload)
    return build_tcp_frame(
        MACS[0], MACS[1], IPS[0], IPS[1], seg, ident=ident
    ).to_bytes()


class TestFrameDigest:
    def test_retransmission_same_digest(self):
        # The IP layer stamps a fresh ident per transmission: the raw
        # bytes differ, the logical segment (and digest) must not.
        first = tcp_bytes(ident=1)
        retransmit = tcp_bytes(ident=7)
        assert first != retransmit
        assert frame_digest(first) == frame_digest(retransmit)

    def test_distinct_segments_distinct_digests(self):
        assert frame_digest(tcp_bytes(seq=100)) != frame_digest(tcp_bytes(seq=101))
        assert frame_digest(tcp_bytes(payload=b"a")) != frame_digest(
            tcp_bytes(payload=b"b")
        )

    def test_pure_ack_identity_includes_ack(self):
        # Two cumulative ACKs for different data are different frames.
        a = frame_digest(tcp_bytes(seq=5, ack=100, flags=FLAG_ACK))
        b = frame_digest(tcp_bytes(seq=5, ack=200, flags=FLAG_ACK))
        assert a != b

    def test_data_segment_ignores_ack_field(self):
        # A retransmitted data segment may carry an updated ack: still the
        # same logical frame.
        a = frame_digest(tcp_bytes(seq=5, ack=100, flags=FLAG_ACK, payload=b"xy"))
        b = frame_digest(tcp_bytes(seq=5, ack=200, flags=FLAG_ACK, payload=b"xy"))
        assert a == b

    def test_udp_datagrams_distinct_by_ident(self):
        one = build_udp_frame(
            MACS[0], MACS[1], IPS[0], IPS[1], 7, 9, b"ping", ident=1
        ).to_bytes()
        two = build_udp_frame(
            MACS[0], MACS[1], IPS[0], IPS[1], 7, 9, b"ping", ident=2
        ).to_bytes()
        assert frame_digest(one) != frame_digest(two)

    def test_runt_frames_digest(self):
        assert frame_digest(b"\x00" * 10) == frame_digest(b"\x00" * 10)
        assert frame_digest(b"\x00" * 10) != frame_digest(b"\x01" * 10)


class TestCorrelation:
    def test_cross_node_hops_one_journey(self):
        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        frame = tcp_bytes()
        recorder.capture("node1", "send", frame)
        sim.run_for(1000)
        recorder.capture("node2", "recv", frame)
        (journey,) = correlate_journeys(recorder, AuditLog(sim))
        assert journey.hops == [(0, "node1", "send"), (1000, "node2", "recv")]
        assert journey.retransmits == 0
        assert journey.first_ns == 0 and journey.last_ns == 1000

    def test_retransmit_counted_and_fault_joined(self):
        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        audit = AuditLog(sim)
        original, retransmit = tcp_bytes(ident=1), tcp_bytes(ident=2)
        recorder.capture("node1", "send", original)
        sim.run_for(10)
        audit.record("node2", "fault", "DROP applied", digest=frame_digest(original))
        sim.run_for(10)
        recorder.capture("node1", "send", retransmit)
        sim.run_for(10)
        recorder.capture("node2", "recv", retransmit)
        (journey,) = correlate_journeys(recorder, audit)
        assert journey.retransmits == 1
        assert journey.faults == [(10, "node2", "fault", "DROP applied")]
        text = journey.render()
        assert "DROP applied" in text and "1 retransmit" in text

    def test_render_of_faulted_retransmitted_journey_is_pinned(self):
        """``render`` is ``render_journeys`` over ``as_dict``: hops and the
        fault interleave by time, the header counts both retransmits."""
        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        audit = AuditLog(sim)
        original, retransmit = tcp_bytes(ident=1), tcp_bytes(ident=2)
        recorder.capture("node1", "send", original)
        sim.run_for(10)
        audit.record("node2", "fault", "DROP applied", digest=frame_digest(original))
        sim.run_for(10)
        recorder.capture("node1", "send", retransmit)
        sim.run_for(10)
        recorder.capture("node2", "recv", retransmit)
        sim.run_for(10)
        recorder.capture("node1", "send", retransmit)
        (journey,) = correlate_journeys(recorder, audit)
        assert journey.render() == "\n".join([
            "journey 70b4ee7a047ca939  TCP 192.168.1.1:24576 > 192.168.1.2:16384 "
            "[SYN] seq=100 ack=0 len=0  (2 retransmits)",
            "           0ns  node1      send ",
            "          10ns  node2      fault: DROP applied",
            "          20ns  node1      send ",
            "          30ns  node2      recv ",
            "          40ns  node1      send ",
        ])

    def test_audit_log_is_required(self):
        """A journey built without the audit trail would hide every fault
        applied to its frame: there is no call that omits it."""
        recorder = TraceRecorder(Simulator(seed=1))
        with pytest.raises(TypeError):
            correlate_journeys(recorder)

    def test_events_without_digest_ignored(self):
        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        audit = AuditLog(sim)
        audit.record("node1", "condition", "fired")  # no digest
        assert correlate_journeys(recorder, audit) == []

    def test_order_is_deterministic(self):
        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        a, b = tcp_bytes(seq=1), tcp_bytes(seq=2)
        recorder.capture("node1", "send", b)
        recorder.capture("node1", "send", a)
        journeys = correlate_journeys(recorder, AuditLog(sim))
        assert [j.digest for j in journeys] == sorted(
            [frame_digest(a), frame_digest(b)]
        )

    def test_as_dict_is_jsonable(self):
        import json

        sim = Simulator(seed=1)
        recorder = TraceRecorder(sim)
        recorder.capture("node1", "send", tcp_bytes())
        (journey,) = correlate_journeys(recorder, AuditLog(sim))
        payload = journey.as_dict()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload
        assert payload["hops"][0]["node"] == "node1"
