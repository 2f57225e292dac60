"""Reliable delivery for the control plane (robustness layer, paper §5.2).

The paper's whole premise — "every packet loss in the testbed is one we
injected" — extends to the orchestration channel: a silently lost INIT_ACK
or COUNTER_UPDATE would hang a scenario or corrupt the distributed
counter/term evaluation.  This module wraps every control message in a
light ARQ protocol so scenarios survive lossy control paths (hubs, links
the experiment itself degrades) and the front-end can tell a slow node
from a dead one.

Per (sender, peer) the channel provides:

* **sequencing** — every reliable message carries a monotonically
  increasing 32-bit sequence number;
* **acknowledgement** — the receiver immediately answers each reliable
  message with an ``ACK`` echoing its sequence number (duplicates are
  re-acknowledged so a lost ACK cannot retransmit forever);
* **retransmission** — unacknowledged messages are re-sent on an
  exponential backoff schedule (``INITIAL_RTO_NS`` doubling up to
  ``MAX_RTO_NS``) until ``MAX_RETRIES`` is exhausted, at which point the
  peer is declared dead and ``on_peer_failed`` fires;
* **duplicate suppression** — already-delivered sequence numbers are
  dropped (and counted) before they reach the engine, so replayed
  COUNTER_UPDATE / TERM_STATUS frames are idempotent;
* **in-order release** — a message that arrives ahead of a retransmitted
  predecessor is parked and released in sequence, so a mirrored counter
  can never regress to a stale value.

Every message this channel sends is reliable except its own ACKs.  On
receive, a message with ``flags == 0`` bypasses all of the above (ACKs,
and any other such message, since the receive side is total over wire
bytes) and is delivered verbatim.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.addresses import MacAddress
from ..sim import NS_PER_MS
from .control import FLAG_RELIABLE, ControlMessage, ControlType

#: First retransmission fires this long after the original send.  Control
#: RTT on the simulated LAN is ~10 µs, so 200 µs is a comfortable bound
#: that still recovers a lost START well inside the workload grace period.
INITIAL_RTO_NS = 200_000
#: Backoff ceiling: doubling stops here.
MAX_RTO_NS = 50 * NS_PER_MS
#: Retransmissions attempted before the peer is declared unreachable.
#: With doubling from 200 µs this spans ~51 ms of silence.
MAX_RETRIES = 8


class _Pending:
    """One unacknowledged reliable message."""

    __slots__ = ("message", "retries", "rto_ns", "timer", "on_acked")

    def __init__(
        self,
        channel: "ReliableControlPlane",
        dst: MacAddress,
        peer: "_PeerState",
        message: ControlMessage,
        on_acked,
    ) -> None:
        self.message = message
        self.retries = 0
        self.rto_ns = INITIAL_RTO_NS
        #: the retransmission timer, ``control:rto``.
        self.timer = channel.sim.timer(channel._retransmit, "control:rto", dst, peer, self)
        self.on_acked = on_acked


class _PeerState:
    """Sequencing state for one remote MAC."""

    __slots__ = ("tx_seq", "inflight", "rx_next", "rx_parked", "dead")

    def __init__(self) -> None:
        self.tx_seq = 0  # last sequence number assigned
        self.inflight: Dict[int, _Pending] = {}
        self.rx_next = 1  # next sequence number to deliver
        self.rx_parked: Dict[int, ControlMessage] = {}
        self.dead = False


class ReliableControlPlane:
    """Per-engine ARQ layer between the engine and the raw control frames.

    The engine hands it outgoing messages (:meth:`send`) and incoming
    frames (:meth:`on_frame`); the channel returns the messages that are
    ready for dispatch, in order, exactly once.
    """

    def __init__(
        self,
        sim,
        transmit: Callable[[MacAddress, ControlMessage], None],
        stats,
    ) -> None:
        self.sim = sim
        self._transmit = transmit
        #: the owning engine's :class:`~repro.core.engine.EngineStats`.
        self._stats = stats
        self._peers: Dict[bytes, _PeerState] = {}
        #: invoked with the peer MAC when its retry budget is exhausted.
        self.on_peer_failed: Optional[Callable[[MacAddress], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget all peer state and cancel every retransmit timer."""
        for peer in self._peers.values():
            for pending in peer.inflight.values():
                pending.timer.stop()
        self._peers.clear()

    def reset_peer(self, mac: MacAddress) -> None:
        """Forget the sequencing state for one peer (it rebooted).

        Cancels that peer's pending retransmits and drops its receive
        window, so the next exchange starts from sequence 1 on both the
        send and receive side — matching the blank channel a freshly
        booted node comes up with.
        """
        state = self._peers.pop(mac.packed, None)
        if state is None:
            return
        for pending in state.inflight.values():
            pending.timer.stop()

    def _peer(self, mac: MacAddress) -> _PeerState:
        state = self._peers.get(mac.packed)
        if state is None:
            state = self._peers[mac.packed] = _PeerState()
        return state

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def send(
        self,
        dst: MacAddress,
        message: ControlMessage,
        on_acked: Optional[Callable[[], None]] = None,
    ) -> ControlMessage:
        """Transmit *message* to *dst*; returns the message as sent.

        The message is sequenced, tracked and retransmitted until
        acknowledged; *on_acked* (if given) fires exactly once when the
        peer's ACK arrives.  Sends to a peer already declared dead are
        dropped and counted (``control_sends_suppressed``).
        """
        peer = self._peer(dst)
        if peer.dead:
            self._stats.control_sends_suppressed += 1
            return message
        peer.tx_seq += 1
        message = ControlMessage(
            message.msg_type,
            message.a,
            message.b,
            seq=peer.tx_seq,
            flags=message.flags | FLAG_RELIABLE,
        )
        pending = _Pending(self, dst, peer, message, on_acked)
        peer.inflight[message.seq] = pending
        self._transmit(dst, message)
        pending.timer.start(pending.rto_ns)
        return message

    def _retransmit(self, dst: MacAddress, peer: _PeerState, pending: _Pending) -> None:
        if pending.message.seq not in peer.inflight or peer.dead:
            return
        if pending.retries >= MAX_RETRIES:
            self._declare_dead(dst, peer)
            return
        pending.retries += 1
        pending.rto_ns = min(pending.rto_ns * 2, MAX_RTO_NS)
        self._stats.control_retransmits += 1
        self._transmit(dst, pending.message)
        pending.timer.start(pending.rto_ns)

    def _declare_dead(self, dst: MacAddress, peer: _PeerState) -> None:
        peer.dead = True
        for pending in peer.inflight.values():
            pending.timer.stop()
        peer.inflight.clear()
        self._stats.control_peer_failures += 1
        if self.on_peer_failed is not None:
            self.on_peer_failed(dst)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_frame(self, src: MacAddress, message: ControlMessage) -> List[ControlMessage]:
        """Feed a received control message in; returns what to dispatch.

        ACKs are consumed here; unreliable messages pass straight through;
        reliable messages are acknowledged, deduplicated and released in
        sequence order (possibly unblocking parked successors).
        """
        stats = self._stats
        if message.msg_type is ControlType.ACK:
            stats.control_acks_received += 1
            self._on_ack(src, message.seq)
            return []
        if not message.reliable:
            return [message]
        peer = self._peer(src)
        # Acknowledge everything, duplicates included: the peer keeps
        # retransmitting until it hears the ACK.
        stats.control_acks_sent += 1
        self._transmit(src, ControlMessage(ControlType.ACK, seq=message.seq))
        if message.seq < peer.rx_next or message.seq in peer.rx_parked:
            stats.control_duplicates_dropped += 1
            return []
        if message.seq > peer.rx_next:
            peer.rx_parked[message.seq] = message
            return []
        deliverable = [message]
        peer.rx_next += 1
        while peer.rx_next in peer.rx_parked:
            deliverable.append(peer.rx_parked.pop(peer.rx_next))
            peer.rx_next += 1
        return deliverable

    def _on_ack(self, src: MacAddress, seq: int) -> None:
        peer = self._peers.get(src.packed)
        if peer is None:
            return
        pending = peer.inflight.pop(seq, None)
        if pending is None:
            return
        pending.timer.stop()
        if pending.on_acked is not None:
            pending.on_acked()

    def __repr__(self) -> str:
        inflight = sum(len(p.inflight) for p in self._peers.values())
        return f"ReliableControlPlane(peers={len(self._peers)}, inflight={inflight})"
