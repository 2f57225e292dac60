"""A store-and-forward learning Ethernet switch.

Each port is full duplex with its own egress FIFO, so two hosts can exchange
data at full line rate in both directions — matching the paper's testbed
("2 Pentium-4 hosts connected using a 100Mbps switch").  The switch learns
source MACs and floods unknown or broadcast/multicast destinations.

The paper notes that VirtualWire components cannot be installed on switches
(§3.1), so the FIE/FAE never runs here; faults on switch-adjacent links must
be emulated from the attached hosts, exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Dict

from ..errors import TopologyError
from ..sim import Simulator
from .frame import HEADER_LEN
from .link import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_NS, Medium, _Transmitter

#: Time the switch spends on lookup + store-and-forward per frame.
DEFAULT_FORWARDING_NS = 2_000


class LearningSwitch(Medium):
    """An N-port learning switch with per-egress-port queues."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        forwarding_ns: int = DEFAULT_FORWARDING_NS,
        **kwargs,
    ) -> None:
        super().__init__(
            sim, name, bandwidth_bps=bandwidth_bps, propagation_ns=propagation_ns, **kwargs
        )
        self.forwarding_ns = forwarding_ns
        self._forward_label = f"{name}:forward"
        #: learned source MAC -> port, keyed by the raw 6 wire bytes.
        self._mac_table: Dict[bytes, int] = {}
        self._egress: Dict[int, _Transmitter] = {}

    def attach(self, nic) -> int:
        port = super().attach(nic)
        self._egress[port] = _Transmitter()
        return port

    # -- forwarding ---------------------------------------------------------

    def transmit(self, ingress_port: int, frame_bytes: bytes) -> None:
        if ingress_port >= len(self._nics):
            raise TopologyError(f"{self.name}: unknown port {ingress_port}")
        if len(frame_bytes) < HEADER_LEN:
            return  # runt frame: a real switch discards it
        if not frame_bytes[6] & 0x01:  # learn unicast sources only
            self._mac_table[frame_bytes[6:12]] = ingress_port
        self.sim.after(
            self.forwarding_ns, self._forward, self._forward_label, args=(ingress_port, frame_bytes)
        )

    def _forward(self, ingress_port: int, frame_bytes: bytes) -> None:
        egress = None if frame_bytes[0] & 0x01 else self._mac_table.get(frame_bytes[0:6])
        if egress is not None:
            if egress != ingress_port:
                self._enqueue(egress, frame_bytes)
            # Destination hangs off the ingress port: nothing to do.
            return
        # Unknown unicast, broadcast, or multicast: flood.
        for port in range(len(self._nics)):
            if port != ingress_port:
                self._enqueue(port, frame_bytes)

    def _enqueue(self, egress_port: int, frame_bytes: bytes) -> None:
        nic = self._nics[egress_port]
        self._serve(self._egress[egress_port], frame_bytes, nic.deliver)
