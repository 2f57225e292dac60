"""The established-state fast path of ``TcpConnection.handle_segment`` ≡ the
per-state handlers it short-circuits.

Two layers of evidence, both against ``tests/oracles/tcp_general_path``:

* whole golden scenarios (Fig 5 with a dropped SYNACK and RTO recovery, the
  Fig 6 crash/restart case, one Fig 7 cell) produce the same surfaces — and
  the pinned digests — with every segment forced through the general path;
* a Hypothesis-driven sequence of hostile and ordinary segments, application
  calls and clock advances drives two connections in lock step, one per
  path, and compares protocol state, timers, counters, callbacks and the
  bytes put on the wire after every step.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TcpError
from repro.net.addresses import IpAddress
from repro.net.fastpath import encode_tcp_segment, tcp_flow_sum
from repro.net.tcp_segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FLAG_URG,
    TcpSegment,
)
from repro.sim import Simulator, ms
from repro.tcp import TcpState
from repro.tcp.connection import _SEGMENT_HANDLERS, TcpConnection
from repro.tcp.seqmath import seq_add, seq_diff
from tests.differential.golden import DIGESTS_PATH, GOLDEN_RUNS, digest
from tests.oracles.tcp_general_path import general_handle_segment, general_tcp_path

# -- whole scenarios --------------------------------------------------------


@pytest.mark.parametrize("name", ["fig5[11]", "fig5[31]", "fig6_crash[5]", "fig7_point"])
def test_golden_scenarios_identical_on_the_general_path(name):
    with general_tcp_path():
        general = GOLDEN_RUNS[name]()
    assert GOLDEN_RUNS[name]() == general
    assert digest(general) == json.loads(DIGESTS_PATH.read_text())[name]


# -- lock step ----------------------------------------------------------------

LOCAL_IP, REMOTE_IP = IpAddress("192.168.1.1"), IpAddress("192.168.1.2")
LOCAL_PORT, REMOTE_PORT = 0x6000, 0x4000
WINDOW = 0xFFFF


class Endpoint:
    """One connection on a stand-in layer that records what would go on the
    wire, the application callbacks, and delivered data."""

    def __init__(self, handle, iss: int) -> None:
        self.sim = Simulator(seed=0)
        self.handle = handle
        self.wire = []
        self.calls = []
        self.delivered = bytearray()
        self.conn = conn = TcpConnection(
            self,
            LOCAL_PORT,
            REMOTE_IP,
            REMOTE_PORT,
            iss=iss,
            flow_sum=tcp_flow_sum(LOCAL_IP, REMOTE_IP),
        )
        conn.on_data = self.delivered.extend
        for name in ("on_established", "on_remote_close", "on_closed", "on_reset"):
            setattr(conn, name, lambda name=name: self.calls.append(name))

    # The two calls a connection makes on its layer.
    def send_segment(self, conn, seg) -> None:
        self.wire.append(encode_tcp_segment(seg, conn.flow_sum))

    def forget(self, conn) -> None:
        self.calls.append("forgotten")

    def snapshot(self) -> dict:
        conn, timer = self.conn, self.conn._rtx_timer
        return {
            "state": conn.state,
            "snd_una": conn.snd_una,
            "snd_nxt": conn.snd_nxt,
            "rcv_nxt": conn.rcv_nxt,
            "peer_window": conn.peer_window,
            "cwnd": conn.congestion.cwnd,
            "ssthresh": conn.congestion.ssthresh,
            "rto_ns": conn.estimator.rto_ns,
            "dup_acks": conn._dup_acks,
            "unacked": [(e.seq, e.end_seq, e.retransmitted) for e in conn._unacked],
            "out_of_order": sorted(conn._out_of_order),
            "queued": conn.send_queue_bytes,
            "counters": (
                conn.segments_sent,
                conn.segments_received,
                conn.bytes_sent,
                conn.bytes_delivered,
                conn.retransmissions,
                conn.fast_retransmits,
                conn.timeout_retransmits,
                conn.duplicate_segments,
            ),
            "rtx_deadline": timer._when if timer.armed else None,  # the timer's stamp
            "now": self.sim.now,
            "pending_events": len(self.sim.queue),
            "wire": list(self.wire),
            "delivered": bytes(self.delivered),
            "calls": list(self.calls),
        }


def from_peer(seq, ack, flags, window=WINDOW, payload=b""):
    return TcpSegment(REMOTE_PORT, LOCAL_PORT, seq % 2**32, ack % 2**32, flags, window, payload)


def pattern(n: int) -> bytes:
    return bytes(i & 0xFF for i in range(n))


def segments(kind: str, a: int, b: int, conn: TcpConnection, irs: int):
    """The peer's segments for one step, placed relative to *conn*'s state."""
    una, nxt, rcv = conn.snd_una, conn.snd_nxt, conn.rcv_nxt
    in_flight = seq_diff(nxt, una)
    data = pattern(1 + b % 1400)
    if kind == "new_ack":
        return [from_peer(rcv, una + 1 + a % max(in_flight, 1), FLAG_ACK)]
    if kind == "ack_everything":
        return [from_peer(rcv, nxt, FLAG_ACK)]
    if kind == "duplicate_ack_x3":
        return [from_peer(rcv, una, FLAG_ACK) for _ in range(3)]
    if kind == "stale_ack":
        return [from_peer(rcv, una - 1 - a, FLAG_ACK)]
    if kind == "ack_beyond_snd_nxt":
        return [from_peer(rcv, nxt + 1 + a, FLAG_ACK)]
    if kind == "zero_window":
        return [from_peer(rcv, una + (1 if in_flight else 0), FLAG_ACK, window=0)]
    if kind == "window_update":
        return [from_peer(rcv, una + (1 if in_flight else 0), FLAG_ACK, window=1 + b)]
    if kind == "data_in_order":
        return [from_peer(rcv, una, FLAG_ACK | FLAG_PSH, payload=data)]
    if kind == "data_with_new_ack":
        return [from_peer(rcv, nxt, FLAG_ACK | FLAG_PSH, payload=data)]
    if kind == "data_out_of_order":
        return [from_peer(rcv + 1 + a, una, FLAG_ACK | FLAG_PSH, payload=data)]
    if kind == "data_duplicate":
        return [from_peer(rcv - len(data), una, FLAG_ACK | FLAG_PSH, payload=data)]
    if kind == "data_without_ack_flag":
        return [from_peer(rcv, 0, FLAG_PSH, payload=data)]
    if kind == "data_urgent":
        return [from_peer(rcv, una, FLAG_ACK | FLAG_URG, payload=data)]
    if kind == "no_flags":
        return [from_peer(rcv, 0, 0)]
    if kind == "fin":
        return [from_peer(rcv, nxt, FLAG_FIN | FLAG_ACK)]
    if kind == "fin_with_data":
        return [from_peer(rcv, una, FLAG_FIN | FLAG_ACK | FLAG_PSH, payload=data)]
    if kind == "rst_in_window":
        return [from_peer(rcv + a % 100, una, FLAG_RST | FLAG_ACK)]
    if kind == "rst_out_of_window":
        return [from_peer(rcv - 1 - a, una, FLAG_RST)]
    if kind == "stale_syn":
        return [from_peer(irs, 0, FLAG_SYN)]
    if kind == "stale_synack":
        return [from_peer(irs, conn.iss + 1, FLAG_SYN | FLAG_ACK)]
    raise AssertionError(kind)


SEGMENT_KINDS = [
    "new_ack", "ack_everything", "duplicate_ack_x3", "stale_ack", "ack_beyond_snd_nxt",
    "zero_window", "window_update", "data_in_order", "data_with_new_ack",
    "data_out_of_order", "data_duplicate", "data_without_ack_flag", "data_urgent",
    "no_flags", "fin", "fin_with_data", "rst_in_window", "rst_out_of_window",
    "stale_syn", "stale_synack",
]  # fmt: skip
#: ordinary traffic is listed twice over so runs stay ESTABLISHED for a while.
KINDS = SEGMENT_KINDS + ["app_send", "app_close", "tick"] + [
    "new_ack", "data_in_order", "app_send", "app_send", "ack_everything", "tick",
]  # fmt: skip

steps = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 5000), st.integers(0, 5000)),
    max_size=40,
)
#: initial sequence numbers, two of them a few segments short of the wrap.
isns = st.sampled_from([0, 1000, 2**31 - 700, 2**32 - 700, 2**32 - 1])


class LockStep:
    """The production entry point and the general path, side by side."""

    def __init__(self, iss: int, irs: int, passive: bool) -> None:
        self.irs = irs
        self.fast = Endpoint(TcpConnection.handle_segment, iss)
        self.general = Endpoint(general_handle_segment, iss)
        if passive:
            self.both(lambda conn: conn.open_passive(from_peer(irs, 0, FLAG_SYN)))
            self.feed(from_peer(irs + 1, iss + 1, FLAG_ACK))
        else:
            self.both(lambda conn: conn.open_active())
            self.feed(from_peer(irs, iss + 1, FLAG_SYN | FLAG_ACK))
        assert self.fast.conn.state is TcpState.ESTABLISHED

    def check(self) -> None:
        assert self.fast.snapshot() == self.general.snapshot()

    def feed(self, seg) -> None:
        for end in (self.fast, self.general):
            end.handle(end.conn, seg)
        self.check()

    def both(self, call) -> None:
        raised = []
        for end in (self.fast, self.general):
            try:
                call(end.conn)
                raised.append(None)
            except TcpError as error:
                raised.append(str(error))
        assert raised[0] == raised[1]
        self.check()

    def step(self, kind: str, a: int, b: int) -> None:
        if kind == "app_send":
            self.both(lambda conn: conn.send(pattern(1 + b)))
        elif kind == "app_close":
            self.both(lambda conn: conn.close())
        elif kind == "tick":
            for end in (self.fast, self.general):
                end.sim.run_for(ms(1 + a))
            self.check()
        else:
            for seg in segments(kind, a, b, self.fast.conn, self.irs):
                self.feed(seg)


@given(iss=isns, irs=isns, passive=st.booleans(), script=steps)
@settings(max_examples=300, deadline=None)
def test_lock_step_with_the_general_path(iss, irs, passive, script):
    pair = LockStep(iss, irs, passive)
    for kind, a, b in script:
        pair.step(kind, a, b)


def test_every_listed_kind_builds_a_segment():
    conn = LockStep(1000, 2**32 - 1, passive=False).fast.conn
    for kind in SEGMENT_KINDS:
        assert segments(kind, 7, 9, conn, 2**32 - 1)


class TestWhichSegmentsTakeTheFastPath:
    """The short cut is taken for exactly what the issue names — ESTABLISHED
    and flags ⊆ ACK|PSH with ACK set — and for nothing else."""

    def run(self, kind, prepare=None):
        pair = LockStep(1000, 5000, passive=False)
        pair.both(lambda conn: conn.send(pattern(3000)))
        if prepare is not None:
            prepare(pair)
        table_calls = []
        spy = {
            state: (lambda conn, seg, h=handler: (table_calls.append(seg), h(conn, seg)))
            for state, handler in _SEGMENT_HANDLERS.items()
        }
        with mock.patch.dict(_SEGMENT_HANDLERS, spy):
            for seg in segments(kind, 3, 99, pair.fast.conn, pair.irs):
                pair.fast.conn.handle_segment(seg)
        return table_calls

    @pytest.mark.parametrize(
        "kind",
        ["new_ack", "duplicate_ack_x3", "stale_ack", "ack_beyond_snd_nxt", "zero_window",
         "data_in_order", "data_out_of_order", "data_duplicate", "data_with_new_ack"],
    )  # fmt: skip
    def test_plain_acks_and_data_skip_the_table(self, kind):
        assert self.run(kind) == []

    @pytest.mark.parametrize(
        "kind",
        ["fin", "fin_with_data", "stale_syn", "stale_synack", "data_without_ack_flag",
         "data_urgent", "no_flags"],
    )  # fmt: skip
    def test_everything_else_goes_through_the_table(self, kind):
        assert len(self.run(kind)) == 1

    def test_resets_never_reach_either(self):
        assert self.run("rst_in_window") == []

    def test_other_states_go_through_the_table(self):
        def peer_closes(pair):
            pair.step("fin", 0, 0)
            assert pair.fast.conn.state is TcpState.CLOSE_WAIT

        assert len(self.run("new_ack", prepare=peer_closes)) == 1
