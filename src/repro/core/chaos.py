"""Adversarial conditions for the orchestration channel itself.

The reliability layer (:mod:`repro.core.reliable`) exists so that scenarios
keep their semantics over *any* control path, including ones the experiment
degrades.  :class:`ControlLossLayer` is the test harness for that claim: a
frame layer spliced **below** the FIE/FAE that silently discards a seeded
fraction of VirtualWire control frames (EtherType 0x88B5) in both
directions, leaving protocol-under-test traffic untouched.

Typical use (tests, benchmarks)::

    tb = Testbed(seed=9)
    ...
    tb.install_virtualwire(control="node1")
    lossy = tb.add_control_loss("node2", 0.2)
    ...
    lossy.dropped_send, lossy.dropped_recv

Being below the engine, the drop hits the wire-bound copy of every control
frame — INIT, ACKs and retransmissions included — exactly like a lossy
link would, but deterministically replayable from the simulator seed.
"""

from __future__ import annotations

from ..errors import ScenarioError
from ..net.bytesutil import read_u16
from ..net.frame import ETHERTYPE_VW_CONTROL
from ..sim import Simulator
from ..stack.layers import FrameLayer


class ControlLossLayer(FrameLayer):
    """Drops a fraction of control-plane frames crossing this host."""

    def __init__(self, sim: Simulator, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ScenarioError(f"loss rate must be within [0, 1], got {rate}")
        super().__init__("control-loss")
        self.rate = rate
        self.dropped_send = 0
        self.dropped_recv = 0
        self._rng = None
        self._sim = sim

    def attached(self) -> None:
        host = self.host.name if self.host is not None else "?"
        self._rng = self._sim.random.stream(f"chaos:control-loss:{host}")

    def _lose(self, frame_bytes: bytes) -> bool:
        if self.rate <= 0.0:
            return False
        if len(frame_bytes) < 14 or read_u16(frame_bytes, 12) != ETHERTYPE_VW_CONTROL:
            return False
        return self._rng.chance(self.rate)

    def on_send(self, frame_bytes: bytes) -> None:
        if self._lose(frame_bytes):
            self.dropped_send += 1
            return
        self.pass_down(frame_bytes)

    def on_receive(self, frame_bytes: bytes) -> None:
        if self._lose(frame_bytes):
            self.dropped_recv += 1
            return
        self.pass_up(frame_bytes)

    def __repr__(self) -> str:
        return (
            f"ControlLossLayer(rate={self.rate}, "
            f"dropped={self.dropped_send}+{self.dropped_recv})"
        )
