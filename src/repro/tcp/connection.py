"""The TCP connection state machine.

A from-scratch TCP sufficient to exercise everything the paper's case study
tests from the wire: three-way handshake with SYN retransmission, ack-per-
segment data transfer, Tahoe congestion control (slow start / congestion
avoidance exactly as §6.1 describes), timeout and fast retransmission with
Karn-sampled RTO, in-order reassembly of out-of-order arrivals (needed when
a REORDER or DROP fault is injected), and the full FIN teardown including
TIME_WAIT.

Segment pacing is ACK-clocked: every received segment is acknowledged
immediately (no delayed ACKs), because the paper's Fig 5 analysis script
counts one ACK per data packet.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from ..errors import TcpError
from ..net.tcp_segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from ..net.addresses import IpAddress
from ..sim import NS_PER_SEC, Simulator
from .buffers import SendBuffer
from .congestion import CongestionControl
from .rto import RttEstimator
from .seqmath import seq_add, seq_diff, seq_gt, seq_le

#: Default maximum segment size, chosen so 64 KB of ssthresh is 64 segments.
DEFAULT_MSS = 1024
#: Advertised receive window (bytes); the app consumes data immediately.
DEFAULT_RCV_WND = 0xFFFF
#: How long TIME_WAIT lingers (shortened 2*MSL).
DEFAULT_TIME_WAIT_NS = 1 * NS_PER_SEC
#: Server-side SYNACK retransmission period (Linux spaces SYNACK retries
#: more coarsely than the client's SYN timer; 3 s keeps the client's SYN
#: retransmission the recovery path, as in the paper's §6.1 narrative).
DEFAULT_SYNACK_RTO_NS = 3 * NS_PER_SEC
#: Duplicate-ACK threshold for fast retransmit.
DUPACK_THRESHOLD = 3
#: Cap on buffered out-of-order segments before new ones are dropped.
MAX_OOO_SEGMENTS = 256


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


#: States in which queued data (and a queued FIN) may go out.
_SENDING_STATES = (
    TcpState.ESTABLISHED,
    TcpState.CLOSE_WAIT,
    TcpState.FIN_WAIT_1,
    TcpState.CLOSING,
    TcpState.LAST_ACK,
)


class _SentSegment:
    """Bookkeeping for one transmitted, not-yet-acknowledged segment."""

    __slots__ = ("seq", "payload", "flags", "sent_at", "retransmitted", "end_seq")

    def __init__(self, seq: int, payload: bytes, flags: int, sent_at: int) -> None:
        self.seq = seq
        self.payload = payload
        self.flags = flags
        self.sent_at = sent_at
        self.retransmitted = False
        phantom = (1 if flags & FLAG_SYN else 0) + (1 if flags & FLAG_FIN else 0)
        #: first sequence number past this segment (SYN and FIN occupy one).
        self.end_seq = seq_add(seq, len(payload) + phantom)


class TcpConnection:
    """One end of a TCP connection."""

    def __init__(
        self,
        layer,
        local_port: int,
        remote_ip: IpAddress,
        remote_port: int,
        congestion: Optional[CongestionControl] = None,
        iss: int = 0,
        *,
        flow_sum: int,
    ) -> None:
        self.layer = layer
        self.sim: Simulator = layer.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        #: Checksum share of the two endpoint addresses
        #: (:func:`repro.net.fastpath.tcp_flow_sum`); the layer's codec reads it.
        self.flow_sum = flow_sum
        self.congestion = congestion if congestion is not None else CongestionControl()
        self.state = TcpState.CLOSED

        # Send side.
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.peer_window = DEFAULT_RCV_WND
        self._send_buffer = SendBuffer()
        self._unacked: List[_SentSegment] = []
        self._fin_queued = False
        self._fin_sent = False
        self._dup_acks = 0

        # Receive side.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_wnd = DEFAULT_RCV_WND
        self._out_of_order: Dict[int, TcpSegment] = {}
        self._remote_fin_seen = False

        # Timers.
        self.estimator = RttEstimator()
        self._rtx_timer = self.sim.timer(self._on_rtx_timeout, f"tcp:{local_port}:rtx")
        self._synack_timer = self.sim.timer(self._on_synack_timeout, "tcp:synack-rtx")
        self._time_wait_timer = self.sim.timer(self._enter_closed, "tcp:time-wait", True)

        # Callbacks the application installs.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_remote_close: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

        # Statistics.
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeout_retransmits = 0
        self.duplicate_segments = 0

        # Metric handles (repro.analysis); None keeps the hot path free.
        metrics = getattr(getattr(layer, "host", None), "metrics", None)
        self._m_rtt = self._m_cwnd = None
        if metrics is not None:
            self._m_rtt = metrics.histogram("tcp", "rtt_ns")
            self._m_cwnd = metrics.gauge("tcp", "cwnd")
            metrics.read("tcp", self, "timeout_retransmits", "fast_retransmits")

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Client side: send SYN and enter SYN_SENT."""
        if self.state is not TcpState.CLOSED:
            raise TcpError(f"open_active in state {self.state.name}")
        self.state = TcpState.SYN_SENT
        self._transmit(self.snd_nxt, b"", FLAG_SYN, track=True)
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self._arm_rtx_timer()

    def open_passive(self, syn: TcpSegment) -> None:
        """Server side: a listener received *syn* for us; answer SYN+ACK."""
        if self.state is not TcpState.CLOSED:
            raise TcpError(f"open_passive in state {self.state.name}")
        self.irs = syn.seq
        self.rcv_nxt = seq_add(syn.seq, 1)
        self.peer_window = syn.window
        self.state = TcpState.SYN_RCVD
        self._send_synack()

    def send(self, data: bytes) -> None:
        """Queue application *data* for transmission."""
        if self.state not in (
            TcpState.ESTABLISHED,
            TcpState.SYN_SENT,
            TcpState.SYN_RCVD,
            TcpState.CLOSE_WAIT,
        ):
            raise TcpError(f"send in state {self.state.name}")
        if self._fin_queued:
            raise TcpError("send after close")
        self._send_buffer.append(data)
        self._try_send()

    def close(self) -> None:
        """Graceful close: FIN goes out once queued data has been sent."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LAST_ACK):
            return
        if self.state is TcpState.SYN_SENT:
            self._enter_closed(notify=True)
            return
        self._fin_queued = True
        self._try_send()

    def abort(self) -> None:
        """Hard close: send RST and drop all state."""
        if self.state not in (TcpState.CLOSED, TcpState.LISTEN):
            self._emit(
                TcpSegment(
                    self.local_port,
                    self.remote_port,
                    self.snd_nxt,
                    self.rcv_nxt,
                    FLAG_RST | FLAG_ACK,
                    0,
                )
            )
        self._enter_closed(notify=True)

    def destroy(self) -> None:
        """Host crash: drop all state silently — no RST, no callbacks."""
        self._enter_closed(notify=False)

    @property
    def is_established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    @property
    def in_flight_bytes(self) -> int:
        return seq_diff(self.snd_nxt, self.snd_una)

    @property
    def send_queue_bytes(self) -> int:
        return len(self._send_buffer)

    # ------------------------------------------------------------------
    # Segment input
    # ------------------------------------------------------------------

    def handle_segment(self, seg: TcpSegment) -> None:
        """Entry point from the TCP layer for every segment addressed to us."""
        self.segments_received += 1
        if seg.flags & ~FLAG_PSH == FLAG_ACK and self.state is TcpState.ESTABLISHED:
            # The steady state: a plain ACK, with or without data.  What
            # _segment_in_established does for it, minus the flag tests.
            self._process_ack(seg)
            if seg.payload:
                self._process_receive(seg)
            return
        if seg.is_rst:
            self._handle_rst(seg)
            return
        handler = _SEGMENT_HANDLERS.get(self.state)
        if handler is not None:
            handler(self, seg)

    def _handle_rst(self, seg: TcpSegment) -> None:
        # Accept the reset only if it is plausibly in-window.
        if self.state is TcpState.SYN_SENT or seq_le(self.rcv_nxt, seg.seq):
            was_open = self.state not in (TcpState.CLOSED,)
            self._enter_closed(notify=False)
            if was_open and self.on_reset is not None:
                self.on_reset()

    def _segment_in_syn_sent(self, seg: TcpSegment) -> None:
        if not (seg.is_syn and seg.is_ack):
            return
        if seg.ack != seq_add(self.iss, 1):
            return  # bogus SYNACK
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.peer_window = seg.window
        self._ack_unacked_through(seg.ack)
        self.snd_una = seg.ack
        self._rtx_timer.stop()
        self.state = TcpState.ESTABLISHED
        self._send_ack()
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    def _segment_in_syn_rcvd(self, seg: TcpSegment) -> None:
        if seg.is_syn and not seg.is_ack:
            # Duplicate SYN: the client never saw our SYNACK — resend it.
            self._send_synack(retransmission=True)
            return
        if seg.is_ack and seg.ack == seq_add(self.iss, 1):
            self.snd_una = seg.ack
            self._ack_unacked_through(seg.ack)
            self.peer_window = seg.window
            self._synack_timer.stop()
            self._rtx_timer.stop()
            self.state = TcpState.ESTABLISHED
            if self.on_established is not None:
                self.on_established()
            # The handshake ACK may carry data.
            if seg.payload or seg.is_fin:
                self._segment_in_established(seg)
            self._try_send()

    def _segment_in_established(self, seg: TcpSegment) -> None:
        if seg.is_syn:
            # Stale duplicate SYN/SYNACK from the handshake: re-ack it.
            self._send_ack()
            return
        if seg.is_ack:
            self._process_ack(seg)
        if seg.payload or seg.is_fin:
            self._process_receive(seg)

    def _segment_in_time_wait(self, seg: TcpSegment) -> None:
        # Re-ack a retransmitted FIN so the peer can leave LAST_ACK.
        if seg.is_fin:
            self._send_ack()

    # ------------------------------------------------------------------
    # ACK processing (send side)
    # ------------------------------------------------------------------

    def _process_ack(self, seg: TcpSegment) -> None:
        ack = seg.ack
        if seq_gt(ack, self.snd_una) and seq_le(ack, self.snd_nxt):
            self._ack_unacked_through(ack)
            self.snd_una = ack
            self.peer_window = seg.window
            self._dup_acks = 0
            self.congestion.on_new_ack()
            if self._m_cwnd is not None:
                self._m_cwnd.set(self.congestion.cwnd)
            if self._unacked:
                self._arm_rtx_timer(restart=True)
            else:
                self._rtx_timer.stop()
            self._maybe_finish_close()
            self._try_send()
        elif (
            ack == self.snd_una
            and self._unacked
            and not seg.payload
            and not seg.is_fin
        ):
            self._dup_acks += 1
            self.congestion.on_duplicate_ack(self._dup_acks)
            if self._dup_acks == DUPACK_THRESHOLD:
                self._fast_retransmit()
        # Acks below snd_una are stale duplicates: ignored.

    def _ack_unacked_through(self, ack: int) -> None:
        """Drop fully-acked segments; feed the RTT estimator (Karn's rule).

        ``_unacked`` is in send order, so the acked segments are a prefix.
        """
        now = self.sim.now
        unacked = self._unacked
        acked = 0
        sampled = False
        for entry in unacked:
            if not seq_le(entry.end_seq, ack):
                break
            acked += 1
            if not entry.retransmitted and not sampled:
                self.estimator.on_measurement(now - entry.sent_at)
                if self._m_rtt is not None:
                    self._m_rtt.observe(now - entry.sent_at)
                sampled = True
        del unacked[:acked]

    def _fast_retransmit(self) -> None:
        if not self._unacked:
            return
        self.fast_retransmits += 1
        self._retransmit_head()
        self.congestion.on_fast_retransmit()
        if self._m_cwnd is not None:
            self._m_cwnd.set(self.congestion.cwnd)
        self._arm_rtx_timer(restart=True)

    # ------------------------------------------------------------------
    # Receive processing
    # ------------------------------------------------------------------

    def _process_receive(self, seg: TcpSegment) -> None:
        if seg.seq == self.rcv_nxt:
            self._accept_in_order(seg)
            self._drain_out_of_order()
        elif seq_gt(seg.seq, self.rcv_nxt):
            if len(self._out_of_order) < MAX_OOO_SEGMENTS:
                self._out_of_order.setdefault(seg.seq, seg)
        else:
            self.duplicate_segments += 1
        # Ack every received segment (in order, out of order, or duplicate).
        self._send_ack()

    def _accept_in_order(self, seg: TcpSegment) -> None:
        if seg.payload:
            self.rcv_nxt = seq_add(self.rcv_nxt, len(seg.payload))
            self.bytes_delivered += len(seg.payload)
            if self.on_data is not None:
                self.on_data(seg.payload)
        if seg.is_fin and not self._remote_fin_seen:
            self._remote_fin_seen = True
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self._on_fin_received()

    def _drain_out_of_order(self) -> None:
        while self.rcv_nxt in self._out_of_order:
            seg = self._out_of_order.pop(self.rcv_nxt)
            self._accept_in_order(seg)

    def _on_fin_received(self) -> None:
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_remote_close is not None:
                self.on_remote_close()
        elif self.state is TcpState.FIN_WAIT_1:
            # Our FIN is still unacked: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _window_bytes(self) -> int:
        return min(self.congestion.window_segments() * DEFAULT_MSS, self.peer_window)

    def _try_send(self) -> None:
        if self.state not in _SENDING_STATES:
            return
        sent_any = False
        buffer = self._send_buffer
        while buffer:
            size = min(DEFAULT_MSS, len(buffer))
            if self._window_bytes() - self.in_flight_bytes < size:
                break
            chunk = buffer.pop(size)
            self._transmit(self.snd_nxt, chunk, FLAG_ACK | FLAG_PSH, track=True)
            self.snd_nxt = seq_add(self.snd_nxt, size)
            self.bytes_sent += size
            sent_any = True
        if self._fin_queued and not self._fin_sent and not buffer:
            self._send_fin()
            sent_any = True
        if sent_any:
            self._arm_rtx_timer()

    def _send_fin(self) -> None:
        self._fin_sent = True
        self._transmit(self.snd_nxt, b"", FLAG_FIN | FLAG_ACK, track=True)
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _maybe_finish_close(self) -> None:
        """State transitions that fire once our FIN is acknowledged."""
        if not self._fin_sent or self._unacked:
            return
        fin_acked = self.snd_una == self.snd_nxt
        if not fin_acked:
            return
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
            if self._remote_fin_seen:
                self._enter_time_wait()
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._enter_closed(notify=True)

    def _send_ack(self) -> None:
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                self.snd_nxt,
                self.rcv_nxt,
                FLAG_ACK,
                self.rcv_wnd,
            )
        )

    def _send_synack(self, retransmission: bool = False) -> None:
        flags = FLAG_SYN | FLAG_ACK
        if retransmission:
            self.retransmissions += 1
            seg = TcpSegment(
                self.local_port, self.remote_port, self.iss, self.rcv_nxt, flags, self.rcv_wnd
            )
            self._emit(seg)
        else:
            self._transmit(self.snd_nxt, b"", flags, track=True)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
        self._synack_timer.start(DEFAULT_SYNACK_RTO_NS)

    def _transmit(self, seq: int, payload: bytes, flags: int, track: bool) -> None:
        ack = self.rcv_nxt if flags & FLAG_ACK else 0
        seg = TcpSegment(
            self.local_port, self.remote_port, seq, ack, flags, self.rcv_wnd, payload
        )
        if track:
            self._unacked.append(_SentSegment(seq, payload, flags, self.sim.now))
        self._emit(seg)

    def _emit(self, seg: TcpSegment) -> None:
        self.segments_sent += 1
        self.layer.send_segment(self, seg)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_rtx_timer(self, restart: bool = False) -> None:
        if restart or not self._rtx_timer.armed:
            self._rtx_timer.start(self.estimator.rto_ns)

    def _on_rtx_timeout(self) -> None:
        if not self._unacked:
            return
        self.timeout_retransmits += 1
        self.estimator.on_timeout()
        self._retransmit_head()
        self.congestion.on_retransmit()
        if self._m_cwnd is not None:
            self._m_cwnd.set(self.congestion.cwnd)
        self._arm_rtx_timer()

    def _retransmit_head(self) -> None:
        entry = min(self._unacked, key=lambda e: seq_diff(e.seq, self.snd_una))
        entry.retransmitted = True
        self.retransmissions += 1
        ack = self.rcv_nxt if entry.flags & FLAG_ACK else 0
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                entry.seq,
                ack,
                entry.flags,
                self.rcv_wnd,
                entry.payload,
            )
        )

    def _on_synack_timeout(self) -> None:
        if self.state is TcpState.SYN_RCVD:
            self._send_synack(retransmission=True)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._rtx_timer.stop()
        self._time_wait_timer.start(DEFAULT_TIME_WAIT_NS)

    def _enter_closed(self, notify: bool) -> None:
        already_closed = self.state is TcpState.CLOSED
        self.state = TcpState.CLOSED
        self._rtx_timer.stop()
        self._synack_timer.stop()
        self._time_wait_timer.stop()
        self._unacked.clear()
        self._send_buffer.clear()
        self.layer.forget(self)
        if notify and not already_closed and self.on_closed is not None:
            self.on_closed()

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TcpConnection({self.local_port} <-> {self.remote_ip}:{self.remote_port}, "
            f"{self.state.name}, una={self.snd_una}, nxt={self.snd_nxt}, "
            f"{self.congestion!r})"
        )


#: Segment input by connection state (CLOSED and LISTEN connections take
#: none); built once, not per segment.
_SEGMENT_HANDLERS = {
    TcpState.SYN_SENT: TcpConnection._segment_in_syn_sent,
    TcpState.SYN_RCVD: TcpConnection._segment_in_syn_rcvd,
    TcpState.ESTABLISHED: TcpConnection._segment_in_established,
    TcpState.FIN_WAIT_1: TcpConnection._segment_in_established,
    TcpState.FIN_WAIT_2: TcpConnection._segment_in_established,
    TcpState.CLOSE_WAIT: TcpConnection._segment_in_established,
    TcpState.CLOSING: TcpConnection._segment_in_established,
    TcpState.LAST_ACK: TcpConnection._segment_in_established,
    TcpState.TIME_WAIT: TcpConnection._segment_in_time_wait,
}
