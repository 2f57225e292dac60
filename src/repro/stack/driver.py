"""The device-driver layer: glue between the frame chain and the NIC.

Charges the driver's CPU cost on both paths and decouples the NIC's
delivery upcall from the rest of the stack through the simulator, so a
received frame is processed in its own "softirq" event — the same structure
Linux gives the paper's Netfilter hooks.

Both deferrals are fire-and-forget events carrying the frame as their
argument (``nic.transmit`` / ``_rx_continue``): nothing per frame is
allocated beyond the queue entry, and nothing outlives its firing, so a
host crash has no pool to reset.
"""

from __future__ import annotations

from ..net.nic import Nic
from ..sim import Simulator
from .costs import CostModel
from .layers import FrameLayer


class DriverLayer(FrameLayer):
    """Bottom of every host's frame chain."""

    def __init__(self, sim: Simulator, nic: Nic, costs: CostModel) -> None:
        super().__init__(f"driver:{nic.name}")
        self.sim = sim
        self.nic = nic
        self.costs = costs
        self.tx_frames = 0
        self.rx_frames = 0
        self._tx_label = f"{self.name}:tx"
        self._rx_label = f"{self.name}:rx"
        nic.set_receive_handler(self._nic_receive)

    def on_send(self, frame_bytes: bytes) -> None:
        """Frame arriving from above: charge tx cost, then hit the wire."""
        self.tx_frames += 1
        self.sim.defer(self.costs.driver_tx_ns, self._tx_continue, self._tx_label, frame_bytes)

    def _tx_continue(self, frame_bytes: bytes) -> None:
        # A method of the driver, not the NIC's own: a reboot discards the
        # driver's deferrals and must leave the medium's NIC deliveries be.
        self.nic.transmit(frame_bytes)

    def _nic_receive(self, frame_bytes: bytes) -> None:
        """NIC upcall: charge rx cost, then continue up the chain."""
        self.rx_frames += 1
        self.sim.defer(self.costs.driver_rx_ns, self._rx_continue, self._rx_label, frame_bytes)

    def _rx_continue(self, frame_bytes: bytes) -> None:
        # The NIC may have been brought down (crash) between delivery and
        # this deferred softirq: a dead interface must not hand frames to
        # the stack.  Counted with the NIC's other down-drops.
        if not self.nic.is_up:
            self.nic.down_drops += 1
            return
        self.pass_up(frame_bytes)
