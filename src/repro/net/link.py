"""Transmission media: point-to-point links and the shared hub/bus.

All media share the same service model: a frame occupies a transmitter for
``len * 8 / bandwidth`` of virtual time, then arrives after the propagation
delay.  Frames that find the transmitter busy wait in a bounded FIFO; when
the FIFO is full the frame is tail-dropped (a loss the VirtualWire engine is
*not* told about — which is precisely why the paper adds the Reliable Link
Layer below the engine).

A configurable bit-error rate corrupts frames in flight; corrupted frames
are delivered with a flag and discarded by the receiving NIC's FCS check.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Tuple

from ..errors import TopologyError
from ..sim import NS_PER_SEC, Simulator
from .nic import Nic

#: Default medium parameters: the paper's testbed is a 100 Mbps switched LAN.
DEFAULT_BANDWIDTH_BPS = 100_000_000
DEFAULT_PROPAGATION_NS = 1_000  # ~200 m of cable
DEFAULT_QUEUE_FRAMES = 128

#: Signature of a delivery callback: (frame_bytes, corrupted).
DeliverFn = Callable[[bytes, bool], None]


class _Transmitter:
    """One serialising FIFO: models a single wire direction (or shared bus)."""

    __slots__ = ("queue", "busy")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[bytes, DeliverFn]] = deque()
        self.busy = False


class Medium:
    """Base class handling attachment bookkeeping and the bit-error model."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        bit_error_rate: float = 0.0,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> None:
        if bandwidth_bps <= 0:
            raise TopologyError(f"bandwidth must be positive, got {bandwidth_bps}")
        if queue_frames < 1:
            raise TopologyError(f"queue must hold at least 1 frame, got {queue_frames}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.bit_error_rate = bit_error_rate
        self.queue_frames = queue_frames
        self._nics: List[Nic] = []
        self._errors = sim.random.stream(f"medium:{name}:biterrors")
        self._txdone_label = f"{name}:txdone"
        self._deliver_label = f"{name}:deliver"

    # -- attachment -------------------------------------------------------

    def attach(self, nic: Nic) -> int:
        """Plug *nic* in; returns the port number."""
        port = len(self._nics)
        self._check_capacity(port)
        self._nics.append(nic)
        nic.attached_to(self, port)
        return port

    def _check_capacity(self, next_port: int) -> None:
        """Subclasses bound the port count here."""

    @property
    def nics(self) -> List[Nic]:
        return list(self._nics)

    # -- service model ------------------------------------------------------

    def serialization_ns(self, frame_bytes: bytes) -> int:
        """Time the frame occupies the transmitter, in nanoseconds."""
        return (len(frame_bytes) * 8 * NS_PER_SEC) // self.bandwidth_bps

    def _frame_corrupted(self, frame_bytes: bytes) -> bool:
        if self.bit_error_rate <= 0.0:
            return False
        per_frame = 1.0 - (1.0 - self.bit_error_rate) ** (len(frame_bytes) * 8)
        return self._errors.chance(per_frame)

    def _serve(self, tx: _Transmitter, frame_bytes: bytes, deliver: DeliverFn) -> None:
        """Enqueue onto *tx*, or tail-drop the frame when its queue is full."""
        if tx.busy and len(tx.queue) >= self.queue_frames:
            return
        tx.queue.append((frame_bytes, deliver))
        if not tx.busy:
            self._start_next(tx)

    def _start_next(self, tx: _Transmitter) -> None:
        frame_bytes, deliver = tx.queue.popleft()
        tx.busy = True
        self.sim.after(
            self.serialization_ns(frame_bytes),
            self._finish_transmission,
            self._txdone_label,
            args=(tx, frame_bytes, deliver),
        )

    def _finish_transmission(
        self, tx: _Transmitter, frame_bytes: bytes, deliver: DeliverFn
    ) -> None:
        corrupted = self._frame_corrupted(frame_bytes)
        self.sim.after(
            self.propagation_ns, deliver, self._deliver_label, args=(frame_bytes, corrupted)
        )
        if tx.queue:
            self._start_next(tx)
        else:
            tx.busy = False

    def transmit(self, port: int, frame_bytes: bytes) -> None:
        raise NotImplementedError


class PointToPointLink(Medium):
    """A full-duplex two-station link with an independent FIFO per direction."""

    def __init__(self, sim: Simulator, name: str = "link", **kwargs) -> None:
        super().__init__(sim, name, **kwargs)
        self._directions = {0: _Transmitter(), 1: _Transmitter()}

    def _check_capacity(self, next_port: int) -> None:
        if next_port >= 2:
            raise TopologyError(f"{self.name}: a point-to-point link has 2 ports")

    def transmit(self, port: int, frame_bytes: bytes) -> None:
        if port not in self._directions:
            raise TopologyError(f"{self.name}: unknown port {port}")
        if len(self._nics) < 2:
            raise TopologyError(f"{self.name}: both ends must be attached first")
        peer = self._nics[1 - port]
        self._serve(self._directions[port], frame_bytes, peer.deliver)


def _deliver_to(nics: Tuple[Nic, ...], frame_bytes: bytes, corrupted: bool) -> None:
    for nic in nics:
        nic.deliver(frame_bytes, corrupted)


class Hub(Medium):
    """A shared half-duplex segment: one transmitter serves every station.

    This models the collision-domain contention the paper blames for the
    throughput dip past 90 Mbps: all stations (and the RLL's acknowledgement
    traffic) compete for a single 100 Mbps resource, so extra control frames
    directly steal goodput and overflow the shared queue under high load.
    """

    def __init__(self, sim: Simulator, name: str = "hub", **kwargs) -> None:
        super().__init__(sim, name, **kwargs)
        self._shared = _Transmitter()
        #: per ingress port, the delivery to every *other* station; rebuilt
        #: on attach so a frame costs no closure.
        self._fan_out: List[DeliverFn] = []

    def attach(self, nic: Nic) -> int:
        port = super().attach(nic)
        self._fan_out = [
            partial(_deliver_to, tuple(n for n in self._nics if n is not skipped))
            for skipped in self._nics
        ]
        return port

    def transmit(self, port: int, frame_bytes: bytes) -> None:
        if port >= len(self._nics):
            raise TopologyError(f"{self.name}: unknown port {port}")
        self._serve(self._shared, frame_bytes, self._fan_out[port])


#: A shared bus (the medium Rether regulates) behaves identically to a hub.
SharedBus = Hub
