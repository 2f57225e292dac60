"""Network interface cards.

A :class:`Nic` is the boundary between a host's software stack and a
transmission medium.  The stack hands it serialised frames; the medium calls
:meth:`Nic.deliver` with received bytes.  The NIC performs the two checks a
real card does in hardware:

* **FCS filtering** — frames flagged as corrupted by the medium's bit-error
  model are silently discarded (and counted), exactly the loss mode the
  paper's Reliable Link Layer exists to mask;
* **address filtering** — unicast frames for other stations are dropped
  unless promiscuous mode is on (the FIE/FAE layer does not need
  promiscuous mode: it observes its own host's traffic only, per §3.1).

``FAIL(node)`` faults take the NIC down; a downed NIC neither transmits nor
delivers.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..errors import TopologyError
from ..sim import Simulator
from .addresses import MacAddress
from .frame import HEADER_LEN

#: Handler invoked with raw frame bytes on reception.
ReceiveHandler = Callable[[bytes], None]


class Nic:
    """A simulated Ethernet interface."""

    def __init__(
        self,
        sim: Simulator,
        mac: Union[str, bytes, MacAddress],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.mac = MacAddress(mac)
        self.name = name or f"nic-{self.mac}"
        #: accept unicast frames for other stations too (a test sniffer).
        self.promiscuous = False
        self.is_up = True
        self._medium = None
        self._port: Optional[int] = None
        self._receive_handler: Optional[ReceiveHandler] = None
        # Counters, in the spirit of `ifconfig` output.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.fcs_drops = 0
        self.filtered_frames = 0
        self.down_drops = 0

    # -- wiring -----------------------------------------------------------

    def attached_to(self, medium, port: int) -> None:
        """Record the medium this NIC is plugged into (called by the medium)."""
        if self._medium is not None:
            raise TopologyError(f"{self.name} is already attached to a medium")
        self._medium = medium
        self._port = port

    @property
    def medium(self):
        return self._medium

    def set_receive_handler(self, handler: ReceiveHandler) -> None:
        """Install the upcall for received frames (the driver layer)."""
        self._receive_handler = handler

    # -- admin ------------------------------------------------------------

    def bring_down(self) -> None:
        """Administratively disable the interface (used by FAIL faults)."""
        self.is_up = False

    def bring_up(self) -> None:
        self.is_up = True

    # -- datapath ---------------------------------------------------------

    def transmit(self, frame_bytes: bytes) -> bool:
        """Hand a serialised frame to the medium.

        Returns True if the frame entered the medium, False if it was
        dropped locally (interface down or unattached).
        """
        if not self.is_up or self._medium is None:
            self.down_drops += 1
            return False
        self.tx_frames += 1
        self.tx_bytes += len(frame_bytes)
        self._medium.transmit(self._port, frame_bytes)
        return True

    def deliver(self, frame_bytes: bytes, corrupted: bool = False) -> None:
        """Receive bytes from the medium (called by the medium)."""
        if not self.is_up:
            self.down_drops += 1
            return
        if corrupted:
            # The frame check sequence failed: hardware drops it silently.
            self.fcs_drops += 1
            return
        if not self._accepts(frame_bytes):
            self.filtered_frames += 1
            return
        self.rx_frames += 1
        self.rx_bytes += len(frame_bytes)
        if self._receive_handler is not None:
            self._receive_handler(frame_bytes)

    def _accepts(self, frame_bytes: bytes) -> bool:
        if self.promiscuous or len(frame_bytes) < HEADER_LEN:
            return True
        dst = frame_bytes[0:6]
        if dst == self.mac.packed:
            return True
        # Accept broadcast and all multicast (Rether uses multicast control).
        return bool(dst[0] & 0x01)

    def __repr__(self) -> str:
        state = "up" if self.is_up else "down"
        return f"Nic({self.name}, {self.mac}, {state})"
