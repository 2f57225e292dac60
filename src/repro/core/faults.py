"""Packet-fault machinery: DELAY queues, REORDER buffers, MODIFY patching.

Implements the Table II packet faults with the paper's stated semantics
(§5.2): DELAY is quantised to the 10 ms jiffy of the Linux software-timer
facility; REORDER queues the specified number of packets and releases them
in a burst "when the bottom half is scheduled next"; MODIFY perturbs random
bytes unless explicit patches are given, in which case keeping checksums
consistent is the script author's responsibility.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.bytesutil import patch_bytes
from ..sim import RandomStream, Simulator, Timer, quantize_to_jiffies
from .tables import ActionSpec, Direction

#: A held packet: (frame bytes, direction it was travelling).
_Held = Tuple[bytes, Direction]

#: Forwarder the engine supplies: (frame bytes, direction) -> None.
ForwardFn = Callable[[bytes, Direction], None]


class DelayQueue:
    """Holds DELAY-ed packets until their jiffy-quantised timer expires."""

    def __init__(self, sim: Simulator, forward: ForwardFn) -> None:
        self.sim = sim
        self.forward = forward
        self.delayed_packets = 0
        self.in_flight = 0
        #: the ``engine.delay_queue_depth`` gauge when telemetry is on,
        #: sampled at every change of ``in_flight``.
        self.depth_gauge = None
        #: the pending release of each held packet, by its hold number.
        self._timers: Dict[int, Timer] = {}

    def hold(self, data: bytes, direction: Direction, delay_ns: int) -> None:
        self.delayed_packets += 1
        self.in_flight += 1
        if self.depth_gauge is not None:
            self.depth_gauge.set(self.in_flight)
        key = self.delayed_packets
        timer = self._timers[key] = self.sim.timer(
            self._release, "fault:delay", key, data, direction
        )
        timer.start(quantize_to_jiffies(delay_ns))

    def _release(self, key: int, data: bytes, direction: Direction) -> None:
        del self._timers[key]
        self.in_flight -= 1
        if self.depth_gauge is not None:
            self.depth_gauge.set(self.in_flight)
        self.forward(data, direction)

    def wipe(self) -> None:
        """Drop every held packet without forwarding (host crash)."""
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()
        if self.in_flight and self.depth_gauge is not None:
            self.depth_gauge.set(0)
        self.in_flight = 0


class ReorderBuffer:
    """Per-action buffers implementing REORDER."""

    def __init__(self, forward: ForwardFn) -> None:
        self.forward = forward
        self._buffers: Dict[int, List[_Held]] = {}

    def hold(
        self, action: ActionSpec, data: bytes, direction: Direction
    ) -> Optional[List[_Held]]:
        """Buffer one packet; once *action*'s count is reached, return the
        permuted burst for the caller to release."""
        buffer = self._buffers.setdefault(action.action_id, [])
        buffer.append((data, direction))
        if len(buffer) < action.reorder_count:
            return None
        del self._buffers[action.action_id]
        order = action.reorder_order or tuple(range(len(buffer), 0, -1))
        return [buffer[i - 1] for i in order]

    def flush(self) -> None:
        """Release everything still buffered (scenario teardown)."""
        for action_id in list(self._buffers):
            buffer = self._buffers.pop(action_id)
            for data, direction in buffer:
                self.forward(data, direction)

    def wipe(self) -> None:
        """Discard everything still buffered without forwarding (crash)."""
        self._buffers.clear()


def apply_modify(action: ActionSpec, data: bytes, rng: RandomStream) -> bytes:
    """Return the modified frame bytes for a MODIFY fault.

    Explicit patches are applied verbatim.  With no patches, one to four
    payload bytes (never the 14-byte Ethernet header, so the frame still
    reaches its destination and the corruption is observable there) are
    XOR-perturbed with non-zero values.
    """
    if action.patches:
        for offset, patch in action.patches:
            data = patch_bytes(data, offset, patch)
        return data
    if len(data) <= 14:
        return data
    mutable = bytearray(data)
    for _ in range(rng.randint(1, min(4, len(data) - 14))):
        offset = rng.randint(14, len(data) - 1)
        mutable[offset] ^= rng.randint(1, 255)
    return bytes(mutable)
