"""The Reliable Link Layer (paper §3.3).

A go-back-N sliding-window protocol spliced *below* the VirtualWire engine
and above the device driver.  Its job in the paper is to make the testbed a
truly controlled environment: MAC-level bit errors (which the engine cannot
see) must never manifest as packet loss, so the only losses a protocol
under test experiences are the ones the fault script injected.

Properties:

* per-peer windows, cumulative ACKs, retransmission on timeout;
* in-order exactly-once delivery of unicast frames to the layer above;
* broadcast/multicast frames bypass the window (they are not acked) —
  link-level reliability for them would need true multicast consensus,
  which neither the paper nor any Ethernet provides;
* a retry cap so a crashed peer (FAIL fault) cannot generate an infinite
  retransmission storm.

The ACK traffic this layer adds in both directions is exactly the overhead
the paper measures in Figs 7 and 8.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..errors import PacketError
from ..net.addresses import MacAddress
from ..net.fastpath import intern_mac
from ..net.frame import HEADER_LEN, MAX_PAYLOAD
from ..sim import NS_PER_MS, Simulator
from ..stack.layers import FrameLayer
from .frames import (
    KIND_ACK,
    KIND_DATA,
    SHIM_LEN,
    decap_data_fast,
    encap_ack_fast,
    encap_data_fast,
    seq_add,
    seq_diff,
)

#: Outstanding unacked frames allowed per peer.
DEFAULT_WINDOW = 8
#: Retransmission timeout: a couple of LAN round trips on a fast medium;
#: a slow one stretches it to a full window (:meth:`RllLayer._rto_ns`).
DEFAULT_RTO_NS = 2 * NS_PER_MS
#: Give up on a frame after this many retransmissions (dead peer).
DEFAULT_MAX_RETRIES = 20


class _PeerState:
    """Window state for one (local, remote) unicast pairing."""

    __slots__ = (
        "snd_next",
        "window",
        "backlog",
        "rcv_next",
        "retries",
        "rto_ns",
        "timer",
    )

    def __init__(self, layer: "RllLayer", mac: MacAddress) -> None:
        self.snd_next = 0
        self.window: Deque[Tuple[int, bytes]] = deque()  # (seq, raw frame)
        self.backlog: Deque[bytes] = deque()
        self.rcv_next = 0
        self.retries = 0
        self.rto_ns = layer._rto_ns()
        #: the retransmission timer, ``rll:rto``.
        self.timer = layer.sim.timer(layer._on_timeout, "rll:rto", mac, self)


class RllLayer(FrameLayer):
    """Reliable Link Layer as a splice-in frame layer."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__("rll")
        self.sim = sim
        #: the host's ``CostModel.rll_frame_ns``, read once in attached().
        self._cost_ns = 0
        self._peers: Dict[MacAddress, _PeerState] = {}
        # Statistics.
        self.data_sent = 0
        self.data_received = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.retransmissions = 0
        self.duplicates_discarded = 0
        self.out_of_order_discarded = 0
        self.malformed_discarded = 0
        self.abandoned_frames = 0
        self.bypass_frames = 0
        # The backlog gauge (repro.analysis); None keeps the hot path free.
        self._m_backlog = None

    def attached(self) -> None:
        self._cost_ns = self.host.costs.rll_frame_ns if self.host else 0
        metrics = getattr(self.host, "metrics", None)
        if metrics is not None:
            metrics.read("rll", self, "retransmissions", "abandoned_frames")
            self._m_backlog = metrics.gauge("rll", "backlog_depth")

    def _rto_ns(self) -> int:
        """:data:`DEFAULT_RTO_NS`, or a full window of MTU frames on the
        attached medium if longer: an ack can wait behind the whole window,
        and resending frames still in flight floods a slow medium."""
        medium = self.host.nic.medium if self.host is not None else None
        if medium is None:
            return DEFAULT_RTO_NS
        window_ns = DEFAULT_WINDOW * medium.serialization_ns(bytes(HEADER_LEN + MAX_PAYLOAD))
        return max(DEFAULT_RTO_NS, window_ns)

    def _peer(self, mac: MacAddress) -> _PeerState:
        state = self._peers.get(mac)
        if state is None:
            state = _PeerState(self, mac)
            self._peers[mac] = state
        return state

    # ------------------------------------------------------------------
    # Host lifecycle
    # ------------------------------------------------------------------

    def on_host_crash(self) -> None:
        """Host crash: every window, backlog and timer is gone."""
        for peer in self._peers.values():
            peer.timer.stop()
            self._clear_backlog(peer)
        self._peers.clear()

    def on_peer_reboot(self, mac: MacAddress) -> None:
        """A peer rebooted with sequence numbers back at zero: forget the
        old pairing so the fresh exchange is not discarded as duplicates."""
        peer = self._peers.pop(mac, None)
        if peer is not None:
            peer.timer.stop()
            self._clear_backlog(peer)

    def _clear_backlog(self, peer: _PeerState) -> None:
        if peer.backlog:
            peer.backlog.clear()
            if self._m_backlog is not None:
                self._m_backlog.set(0)

    # ------------------------------------------------------------------
    # Downward path: encapsulate and window
    # ------------------------------------------------------------------

    def on_send(self, frame_bytes: bytes) -> None:
        # A frame from the local stack that no Ethernet could carry is a
        # programming error, not wire input: raise.
        n = len(frame_bytes)
        if n < HEADER_LEN:
            raise PacketError(f"frame of {n} bytes is shorter than header")
        if n - HEADER_LEN > MAX_PAYLOAD:
            raise PacketError(
                f"payload of {n - HEADER_LEN} bytes exceeds "
                f"Ethernet MTU {MAX_PAYLOAD}"
            )
        if frame_bytes[0] & 0x01:
            self.bypass_frames += 1
            self.pass_down(frame_bytes)
            return
        dst = intern_mac(frame_bytes[:6])
        peer = self._peer(dst)
        if len(peer.window) >= DEFAULT_WINDOW:
            peer.backlog.append(frame_bytes)
            if self._m_backlog is not None:
                self._m_backlog.set(len(peer.backlog))
            return
        self.sim.defer(self._cost_ns, self._send_data, "rll:tx", dst, peer, frame_bytes)

    def _send_data(self, dst: MacAddress, peer: _PeerState, frame: bytes) -> None:
        if self._peers.get(dst) is not peer:
            return  # the pairing died (host crash, peer reboot) while the frame sat on the CPU
        seq = peer.snd_next
        peer.snd_next = seq_add(peer.snd_next, 1)
        peer.window.append((seq, frame))
        self.data_sent += 1
        self._emit_data(dst, frame, seq, peer.rcv_next)
        if not peer.timer.armed:
            peer.timer.start(peer.rto_ns)

    def _emit_data(self, dst: MacAddress, frame: bytes, seq: int, ack: int) -> None:
        self.pass_down(encap_data_fast(frame, seq, ack))

    # ------------------------------------------------------------------
    # Upward path: decapsulate, ack, deliver in order
    # ------------------------------------------------------------------

    def on_receive(self, frame_bytes: bytes) -> None:
        # Total over wire bytes: a frame no well-formed peer could have
        # sent is counted and dropped, never raised into the simulation.
        n = len(frame_bytes)
        if n < HEADER_LEN or n - HEADER_LEN > MAX_PAYLOAD:
            self.malformed_discarded += 1
            return
        if frame_bytes[12] != 0x88 or frame_bytes[13] != 0xB6:
            # Not RLL traffic (e.g. a peer without RLL, or multicast bypass).
            self.bypass_frames += 1
            self.pass_up(frame_bytes)
            return
        if n - HEADER_LEN < SHIM_LEN:
            self.malformed_discarded += 1
            return
        kind = frame_bytes[14]
        if kind != KIND_DATA and kind != KIND_ACK:
            self.malformed_discarded += 1
            return
        src = intern_mac(frame_bytes[6:12])
        peer = self._peer(src)
        ack = (frame_bytes[18] << 8) | frame_bytes[19]
        if kind == KIND_ACK:
            self.acks_received += 1
            self._process_ack(src, peer, ack)
            return
        seq = (frame_bytes[16] << 8) | frame_bytes[17]
        self.sim.defer(
            self._cost_ns, self._process_data, "rll:rx", frame_bytes, src, seq, ack, peer
        )

    def _process_data(
        self, frame_bytes: bytes, src: MacAddress, seq: int, ack: int, peer: _PeerState
    ) -> None:
        if self._peers.get(src) is not peer:
            return  # as in _send_data: a dead pairing's window must not be revived
        # Piggybacked cumulative ack is valid on every DATA frame.
        self._process_ack(src, peer, ack)
        delta = seq_diff(seq, peer.rcv_next)
        if delta == 0:
            peer.rcv_next = seq_add(peer.rcv_next, 1)
            self.data_received += 1
            self._send_ack(src, peer)
            self.pass_up(decap_data_fast(frame_bytes))
        elif delta < 0:
            # Duplicate of something we already delivered: re-ack, discard.
            self.duplicates_discarded += 1
            self._send_ack(src, peer)
        else:
            # Go-back-N: a gap means the earlier frame is in flight again;
            # discard and re-ack the last in-order point.
            self.out_of_order_discarded += 1
            self._send_ack(src, peer)

    def _send_ack(self, dst: MacAddress, peer: _PeerState) -> None:
        self.acks_sent += 1
        src = self.host.mac if self.host is not None else dst
        self.pass_down(encap_ack_fast(dst.packed, src.packed, peer.rcv_next))

    def _process_ack(self, dst: MacAddress, peer: _PeerState, ack: int) -> None:
        advanced = False
        while peer.window and seq_diff(peer.window[0][0], ack) < 0:
            peer.window.popleft()
            advanced = True
        if advanced:
            peer.retries = 0
            if peer.window:
                peer.timer.start(peer.rto_ns)
            else:
                peer.timer.stop()
            self._drain_backlog(dst, peer)

    def _drain_backlog(self, dst: MacAddress, peer: _PeerState) -> None:
        backlog = peer.backlog
        if not backlog or len(peer.window) >= DEFAULT_WINDOW:
            return
        while backlog and len(peer.window) < DEFAULT_WINDOW:
            self._send_data(dst, peer, backlog.popleft())
        if self._m_backlog is not None:
            self._m_backlog.set(len(backlog))

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------

    def _on_timeout(self, dst: MacAddress, peer: _PeerState) -> None:
        if not peer.window:
            return
        peer.retries += 1
        if peer.retries > DEFAULT_MAX_RETRIES:
            # The peer is gone (e.g. a FAIL fault): abandon its traffic so
            # the simulation can quiesce instead of retrying forever.
            self.abandoned_frames += len(peer.window) + len(peer.backlog)
            peer.window.clear()
            self._clear_backlog(peer)
            peer.retries = 0
            return
        # Go-back-N: resend everything outstanding, oldest first.
        for seq, frame in peer.window:
            self.retransmissions += 1
            self._emit_data(dst, frame, seq, peer.rcv_next)
        peer.timer.start(peer.rto_ns)

    def __repr__(self) -> str:
        return (
            f"RllLayer(window={DEFAULT_WINDOW}, peers={len(self._peers)}, "
            f"rtx={self.retransmissions})"
        )
