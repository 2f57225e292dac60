"""The Rether protocol layer.

Rether (Venkatramani & Chiueh, SIGCOMM '95) is a software token-passing
protocol sitting between the Ethernet driver and the IP stack: a node may
transmit data frames only while it holds the circulating control token.
This module implements the behaviour the paper's §6.2 scenario tests:

* **best-effort round robin** — the token visits every ring member in a
  fixed order; the holder drains up to a burst quota of queued data frames,
  then passes the token on;
* **acknowledged token handoff** — each token transfer must be answered by
  a token-ack; the sender sends it ``DEFAULT_MAX_TOKEN_ATTEMPTS`` times in all
  (the scenario's analysis script checks for exactly 3 sends), then
  declares the successor dead;
* **ring reconstruction** — a dead successor is dropped from the sender's
  ring view and the token goes to the next live member, so "the token cycle
  is reconstructed among the remaining nodes";
* **token regeneration** — if a node sees no token activity for a long
  interval (the holder itself died), the live member with the lowest MAC
  address regenerates the token with a bumped generation number; stale
  generations are discarded, keeping a single token in circulation;
* a **cycle budget**: queued frames go out only while the rotation is
  inside its target cycle time.

The layer is spliced *above* the VirtualWire engine, so every token and
token-ack crosses the engine's hook and can be counted, dropped, delayed or
reordered by fault scripts — with zero changes to the code in this file.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..errors import RetherError
from ..net.addresses import MacAddress
from ..net.fastpath import intern_mac
from ..net.frame import HEADER_LEN as ETH_HEADER_LEN
from ..net.frame import MAX_PAYLOAD
from ..sim import NS_PER_MS, Simulator
from ..stack.layers import FrameLayer
from .messages import (
    HEADER,
    HEADER_LEN,
    MESSAGE_TYPES,
    TYPE_JOIN,
    TYPE_TOKEN,
    TYPE_TOKEN_ACK,
    encode_frame,
)

#: Wait this long for a token-ack before retrying the handoff.
DEFAULT_ACK_TIMEOUT_NS = 10 * NS_PER_MS
#: Total token transmissions to one successor before declaring it dead.
#: The paper's analysis script checks TokensFrom2 == 3 (and flags > 3).
DEFAULT_MAX_TOKEN_ATTEMPTS = 3
#: Best-effort frames the holder may send per token visit.
DEFAULT_BURST_FRAMES = 10
#: No token activity for this long => the token was lost with its holder.
DEFAULT_REGENERATION_TIMEOUT_NS = 500 * NS_PER_MS
#: Target token rotation time: past it, queued frames wait for the next visit.
DEFAULT_CYCLE_TARGET_NS = 30 * NS_PER_MS
#: Bound on the queue of data frames awaiting the token.
DEFAULT_QUEUE_FRAMES = 512
#: Pause before passing the token on when this visit moved no data.  Keeps
#: an idle ring from spinning at wire speed (real Rether paces its cycle
#: for the reserved real-time streams anyway); bounded so failure
#: detection still completes well inside the paper's 1-second budget.
DEFAULT_IDLE_GAP_NS = 200_000

_BROADCAST = b"\xff" * 6
#: Shortest frame whose header parses, and longest an Ethernet link carries.
_MIN_FRAME = ETH_HEADER_LEN + HEADER_LEN
_MAX_FRAME = ETH_HEADER_LEN + MAX_PAYLOAD


class RetherLayer(FrameLayer):
    """One node's Rether instance, spliced into the host frame chain."""

    def __init__(
        self,
        sim: Simulator,
        ring: List[MacAddress],
        regeneration_timeout_ns: int = DEFAULT_REGENERATION_TIMEOUT_NS,
    ) -> None:
        super().__init__("rether")
        if len(ring) < 2:
            raise RetherError("a Rether ring needs at least two members")
        self.sim = sim
        self._members: List[MacAddress] = list(ring)
        self._dead: set = set()
        # The ring view, recomputed by _ring_changed() wherever _dead
        # changes: the live ring, the next live member after us, and our
        # rank in MAC order (0: the ring master).
        self._live: List[MacAddress] = list(ring)
        self._successor: Optional[MacAddress] = None
        self._rank = 0
        self.regeneration_timeout_ns = regeneration_timeout_ns

        self._mac: Optional[MacAddress] = None
        self._mac_packed = b""
        self._queue: Deque[bytes] = deque()
        self.holding_token = False
        self.generation = 0
        self._token_seq = 0
        self._cycle_start = 0
        self._handoff_timer = sim.timer(self._on_handoff_timeout, "rether:ack-timeout")
        self._handoff_attempts = 0
        #: the pending handoff's token frame, which its retransmissions
        #: resend as is; None while no handoff is pending.
        self._handoff_msg: Optional[bytes] = None
        self._handoff_target: Optional[MacAddress] = None
        self._regen_timer = sim.timer(self._on_regen_timeout, "rether:regen")
        self._regen_strikes = 0
        self._idle_pass_timer = sim.timer(self._idle_pass, "rether:idle-gap")
        self._started = False

        # Statistics.
        self.tokens_received = 0
        self.token_retransmissions = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.nodes_evicted = 0
        self.joins_accepted = 0
        self.regenerations = 0
        self.stale_tokens_discarded = 0
        self.malformed_discarded = 0
        self.data_sent = 0
        self.queue_drops = 0
        self.be_deferred = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def ring(self) -> List[MacAddress]:
        """The live ring: declared members minus evicted nodes."""
        return list(self._live)

    def _ring_changed(self) -> None:
        """Recompute the ring view after a change to ``_dead``."""
        live = [mac for mac in self._members if mac not in self._dead]
        self._live = live
        index = live.index(self._mac)
        self._successor = live[(index + 1) % len(live)]
        self._rank = sorted(mac.packed for mac in live).index(self._mac_packed)

    def attached(self) -> None:
        self._mac = self.host.mac
        self._mac_packed = self._mac.packed
        if self._mac not in self._members:
            raise RetherError(
                f"{self._mac} is not a member of the ring {self._members}"
            )
        self._ring_changed()
        if self.host.metrics is not None:
            self.host.metrics.read(
                "rether", self, "token_retransmissions", "regenerations", "nodes_evicted"
            )

    def start(self, as_master: bool = False) -> None:
        """Begin protocol operation.  Exactly one node starts as master

        (the initial token holder); everyone else arms the loss watchdog.
        """
        if self._started:
            raise RetherError("Rether layer already started")
        self._started = True
        if as_master:
            self.holding_token = True
            self._cycle_start = self.sim.now
            # Give every node a moment to start before the first rotation.
            self.sim.after(NS_PER_MS, self._service_token, "rether:first-cycle")
        self._regen_timer.start(self.regeneration_timeout_ns)

    def on_host_crash(self) -> None:
        """Host crash: all protocol state is lost with the machine.

        Queues, the held token, pending handoffs and every timer vanish;
        the ring recovers around us via ack-timeout eviction and token
        regeneration.  A later reboot starts from generation 0 — the
        live ring's bumped generation wins on contact.
        """
        self._handoff_timer.stop()
        self._handoff_msg = None
        self._handoff_target = None
        self._regen_timer.stop()
        self._regen_strikes = 0
        self._idle_pass_timer.stop()
        self._queue.clear()
        self.holding_token = False
        self.generation = 0
        self._token_seq = 0
        self._cycle_start = 0
        self._dead.clear()
        self._ring_changed()
        self._started = False

    def on_host_resynced(self) -> None:
        """The rebooted host's engine re-armed its tables: rejoin the ring.

        Deliberately *not* done at reboot time — protocol traffic must
        resume only once fault injection is armed again, preserving the
        testbed's "armed before traffic" invariant.
        """
        self._started = True
        self.rejoin()

    # ------------------------------------------------------------------
    # Frame-chain hooks
    # ------------------------------------------------------------------

    def on_send(self, frame_bytes: bytes) -> None:
        """Data from the IP stack: queue until we hold the token."""
        if len(frame_bytes) >= 14 and frame_bytes[12:14] == b"\x99\x00":
            # Our own control traffic (or a test injecting raw control).
            self.pass_down(frame_bytes)
            return
        if len(self._queue) >= DEFAULT_QUEUE_FRAMES:
            self.queue_drops += 1
            return
        self._queue.append(frame_bytes)
        if self.holding_token and self._handoff_msg is None:
            # Idle holder (we kept the token because the ring was otherwise
            # silent): service the new frame immediately.
            self._service_token()

    def on_receive(self, frame_bytes: bytes) -> None:
        if len(frame_bytes) >= 16 and frame_bytes[12:14] == b"\x99\x00":
            self._handle_control(frame_bytes)
            return
        self.pass_up(frame_bytes)

    # ------------------------------------------------------------------
    # Control handling
    # ------------------------------------------------------------------

    def _handle_control(self, frame_bytes: bytes) -> None:
        if len(frame_bytes) > _MAX_FRAME:
            # Longer than any Ethernet link carries: dropped like the rest.
            self.malformed_discarded += 1
            return
        dst = frame_bytes[:6]
        to_us = dst == self._mac_packed
        if not to_us and dst != _BROADCAST:
            return  # control for someone else (shared segment)
        if len(frame_bytes) < _MIN_FRAME:
            # Short header (e.g. a scripted MODIFY on a token): a fault the
            # protocol sees as loss, not a crash.
            self.malformed_discarded += 1
            return
        msg_type, generation, seq, cycle_start = HEADER.unpack_from(frame_bytes, 14)
        if msg_type not in MESSAGE_TYPES:
            self.malformed_discarded += 1
            return
        self._touch_regen_timer()
        src = frame_bytes[6:12]
        if msg_type == TYPE_JOIN:
            if src != self._mac_packed:
                self._handle_join(intern_mac(src))
            return
        if not to_us:
            return
        if msg_type == TYPE_TOKEN:
            self._handle_token(src, generation, seq, cycle_start)
        else:
            self._handle_token_ack(src, seq)

    def _handle_token(self, src: bytes, generation: int, seq: int, cycle_start: int) -> None:
        if generation < self.generation:
            self.stale_tokens_discarded += 1
            return
        is_stale_repeat = (
            generation == self.generation
            and (self._token_seq - seq) % (1 << 32) < (1 << 31)
            and self.tokens_received > 0
        )
        self.generation = generation
        # Always ack, even for a duplicate: the ack may have been lost.
        self._send_ack(src, generation, seq, cycle_start)
        if self.holding_token:
            return  # duplicate handoff of the token we already hold
        if is_stale_repeat:
            # A predecessor retransmitted a token we already forwarded
            # (its ack was lost).  Re-acking is enough; accepting it would
            # put a second token into circulation.
            self.stale_tokens_discarded += 1
            return
        self.holding_token = True
        self.tokens_received += 1
        self._token_seq = seq
        self._cycle_start = cycle_start
        if self._rank == 0:
            self._cycle_start = self.sim.now  # the master: a rotation completed
        self._service_token()

    def _send_ack(self, dst: bytes, generation: int, seq: int, cycle_start: int) -> None:
        self.acks_sent += 1
        self.pass_down(
            encode_frame(dst, self._mac_packed, TYPE_TOKEN_ACK, generation, seq, cycle_start)
        )

    def _handle_token_ack(self, src: bytes, seq: int) -> None:
        if self._handoff_msg is None or src != self._handoff_target.packed:
            return
        # A pending handoff carries _token_seq: it moves only when a token
        # is passed, or accepted — which a holder never does.
        if seq != self._token_seq:
            return  # ack for an older handoff
        self.acks_received += 1
        self._handoff_timer.stop()
        self._handoff_msg = None
        self._handoff_target = None
        self._handoff_attempts = 0
        self.holding_token = False

    # ------------------------------------------------------------------
    # Token service: transmit data, then pass on
    # ------------------------------------------------------------------

    def _service_token(self) -> None:
        if not self.holding_token or self._handoff_msg is not None:
            return
        self._idle_pass_timer.stop()
        sent = self._transmit_pending()
        if sent == 0:
            # Nothing to send: hold the token briefly so an idle ring does
            # not rotate at wire speed.  Newly queued data cuts the gap
            # short (on_send re-enters _service_token).
            self._idle_pass_timer.start(DEFAULT_IDLE_GAP_NS)
        else:
            self._pass_token()

    def _idle_pass(self) -> None:
        if not self.holding_token or self._handoff_msg is not None:
            return
        self._transmit_pending()
        self._pass_token()

    def _transmit_pending(self) -> int:
        """Send queued data within the burst budget, and only while the
        rotation is within its target cycle time; returns frames sent."""
        sent = 0
        if self.sim.now - self._cycle_start < DEFAULT_CYCLE_TARGET_NS:
            while self._queue and sent < DEFAULT_BURST_FRAMES:
                self.pass_down(self._queue.popleft())
                self.data_sent += 1
                sent += 1
        elif self._queue:
            self.be_deferred += len(self._queue)
        return sent

    def _pass_token(self) -> None:
        successor = self._successor
        if successor == self._mac:
            # We are the only live member: keep the token, stay quiet until
            # there is data to send or a peer rejoins.
            self.holding_token = True
            return
        self._token_seq = (self._token_seq + 1) % (1 << 32)
        self._handoff_msg = encode_frame(
            successor.packed,
            self._mac_packed,
            TYPE_TOKEN,
            self.generation,
            self._token_seq,
            self._cycle_start,
        )
        self._handoff_target = successor
        self._handoff_attempts = 0
        self._transmit_token()

    def _transmit_token(self) -> None:
        if self._handoff_msg is None:
            return
        self._handoff_attempts += 1
        if self._handoff_attempts > 1:
            self.token_retransmissions += 1
        self.pass_down(self._handoff_msg)
        self._handoff_timer.start(DEFAULT_ACK_TIMEOUT_NS)

    # ------------------------------------------------------------------
    # Failure detection and ring reconstruction
    # ------------------------------------------------------------------

    def _on_handoff_timeout(self) -> None:
        if self._handoff_msg is None:
            return
        if self._handoff_attempts < DEFAULT_MAX_TOKEN_ATTEMPTS:
            self._transmit_token()
            return
        # The successor never acked despite max attempts: evict it and
        # reconstruct the ring without it.
        dead = self._handoff_target
        self.nodes_evicted += 1
        self._dead.add(dead)
        self._ring_changed()
        self._handoff_msg = None
        self._handoff_target = None
        self._handoff_attempts = 0
        self._pass_token()

    def evicted(self, mac: MacAddress) -> bool:
        """True if *mac* has been removed from this node's ring view."""
        return mac in self._dead

    # ------------------------------------------------------------------
    # Node rejoin
    # ------------------------------------------------------------------

    def rejoin(self) -> None:
        """Announce this (recovered) node back into the ring.

        Resets stale local protocol state, forgets stale eviction
        knowledge (it will be re-learned if still true), and broadcasts a
        JOIN so the live members reinstate us in their ring views; the
        token then reaches us on its next rotation.
        """
        if self.host is None or not self.host.is_alive:
            raise RetherError("rejoin requires a recovered (alive) host")
        self.holding_token = False
        self._handoff_timer.stop()
        self._handoff_msg = None
        self._handoff_target = None
        self._handoff_attempts = 0
        self._dead.clear()
        self._ring_changed()
        self.pass_down(encode_frame(_BROADCAST, self._mac_packed, TYPE_JOIN, self.generation, 0))
        self._regen_timer.start(self.regeneration_timeout_ns)

    def _handle_join(self, sender: MacAddress) -> None:
        if sender in self._members and sender in self._dead:
            self._dead.discard(sender)
            self._ring_changed()
            self.joins_accepted += 1

    # ------------------------------------------------------------------
    # Token-loss recovery
    # ------------------------------------------------------------------

    def _touch_regen_timer(self) -> None:
        if self._started:
            self._regen_strikes = 0
            self._regen_timer.start(self.regeneration_timeout_ns)

    def _on_regen_timeout(self) -> None:
        if not self._started or self.host is None or not self.host.is_alive:
            return
        self._regen_timer.start(self.regeneration_timeout_ns)
        if self.holding_token:
            # We hold the token but the ring is idle; nothing to recover.
            return
        # The token is lost.  The lowest-MAC live member regenerates it —
        # but the master may be the dead node, so candidacy cascades by
        # rank: the k-th lowest MAC steps up after k+1 silent periods.
        # (Found by the crash property test: with master-only
        # regeneration, crashing the master deadlocked the ring.)
        self._regen_strikes += 1
        if self._regen_strikes <= self._rank:
            return
        self.regenerations += 1
        self.generation = (self.generation + 1) % (1 << 16)
        self.holding_token = True
        self._cycle_start = self.sim.now
        self._service_token()

    def __repr__(self) -> str:
        holder = "holder" if self.holding_token else "idle"
        return (
            f"RetherLayer({self._mac}, ring={len(self._live)}, {holder}, "
            f"gen={self.generation})"
        )
