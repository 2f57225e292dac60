"""The layered frame path of a host, with named splice points.

The paper inserts its engine "between the network interface card's device
driver and the IP protocol stack" using Netfilter hooks (§3.3, §5.2).  We
reproduce that structure explicitly: every host owns a :class:`LayerChain`
of :class:`FrameLayer` objects running from the driver (bottom) to the
EtherType demultiplexer (top).  The VirtualWire FIE/FAE and the Reliable
Link Layer are ordinary :class:`FrameLayer` subclasses spliced into the
chain at run time — the host OS code is never modified, which is the
paper's headline deployment property.

Frames move through the chain as raw bytes; layers read the header fields
they need straight from them (:mod:`repro.net.fastpath`), and trace taps
view them through :class:`repro.net.FrameView`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import StackError
from ..net.bytesutil import read_u16
from ..sim import Simulator


class FrameLayer:
    """One element of a host's frame path.

    Subclasses override :meth:`on_send` (frame travelling toward the wire)
    and :meth:`on_receive` (frame travelling toward the IP stack).  Each
    hook decides the frame's fate by calling :meth:`pass_down` /
    :meth:`pass_up`, holding the frame for later, or dropping it by simply
    not forwarding.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.lower: Optional["FrameLayer"] = None
        self.upper: Optional["FrameLayer"] = None
        self.host = None  # set when spliced into a chain

    # -- overridable hooks --------------------------------------------------

    def on_send(self, frame_bytes: bytes) -> None:
        """Handle a frame moving down; default is transparent forwarding."""
        self.pass_down(frame_bytes)

    def on_receive(self, frame_bytes: bytes) -> None:
        """Handle a frame moving up; default is transparent forwarding."""
        self.pass_up(frame_bytes)

    def attached(self) -> None:
        """Called once the layer is spliced in and ``self.host`` is set."""

    # -- host lifecycle hooks (crash/restart, all default no-ops) -----------

    def on_host_crash(self) -> None:
        """The owning host crashed: drop all soft state, cancel timers."""

    def on_host_reboot(self) -> None:
        """The owning host is booting back up with blank state."""

    def on_peer_reboot(self, mac) -> None:
        """The peer at *mac* crashed and rebooted: forget its session state."""

    def on_host_resynced(self) -> None:
        """The rebooted host's tables are re-armed; resume protocol work."""

    # -- forwarding helpers ---------------------------------------------------

    def pass_down(self, frame_bytes: bytes) -> None:
        if self.lower is None:
            raise StackError(f"layer {self.name!r} has nothing below it")
        self.lower.on_send(frame_bytes)

    def pass_up(self, frame_bytes: bytes) -> None:
        if self.upper is None:
            raise StackError(f"layer {self.name!r} has nothing above it")
        self.upper.on_receive(frame_bytes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class EthertypeDemux(FrameLayer):
    """Top of the frame chain: dispatches received frames by EtherType.

    Protocol modules (IP, Rether, ...) register handlers; to transmit they
    call :meth:`send_frame_bytes`, which enters the chain from the top.
    """

    def __init__(self) -> None:
        super().__init__("demux")
        self._handlers: Dict[int, Callable[[bytes], None]] = {}
        self.unclaimed_frames = 0

    def register(self, ethertype: int, handler: Callable[[bytes], None]) -> None:
        if ethertype in self._handlers:
            raise StackError(f"ethertype {ethertype:#06x} already has a handler")
        self._handlers[ethertype] = handler

    def send_frame_bytes(self, frame_bytes: bytes) -> None:
        self.on_send(frame_bytes)

    def on_receive(self, frame_bytes: bytes) -> None:
        if len(frame_bytes) < 14:
            self.unclaimed_frames += 1
            return
        handler = self._handlers.get(read_u16(frame_bytes, 12))
        if handler is None:
            self.unclaimed_frames += 1
            return
        handler(frame_bytes)


class LayerChain:
    """Assembles and re-splices the ordered list of frame layers."""

    def __init__(self, sim: Simulator, host) -> None:
        self.sim = sim
        self.host = host
        self.demux = EthertypeDemux()
        self.demux.host = host
        self._layers: List[FrameLayer] = []  # bottom first, demux excluded
        self._bottom: Optional[FrameLayer] = None

    def set_bottom(self, layer: FrameLayer) -> None:
        """Install the driver layer; must happen before any splicing."""
        if self._bottom is not None:
            raise StackError("bottom layer already installed")
        self._bottom = layer
        layer.host = self.host
        self._relink()
        layer.attached()

    def splice_above_driver(self, layer: FrameLayer) -> None:
        """Insert *layer* directly above the driver (e.g. the RLL)."""
        self._insert(0, layer)

    def splice_below_ip(self, layer: FrameLayer) -> None:
        """Insert *layer* directly below the demux/IP (the FIE/FAE spot)."""
        self._insert(len(self._layers), layer)

    def _insert(self, index: int, layer: FrameLayer) -> None:
        if self._bottom is None:
            raise StackError("install the driver before splicing layers")
        if layer in self._layers:
            raise StackError(f"layer {layer.name!r} already spliced")
        layer.host = self.host
        self._layers.insert(index, layer)
        self._relink()
        layer.attached()

    def _relink(self) -> None:
        ordered: List[FrameLayer] = []
        if self._bottom is not None:
            ordered.append(self._bottom)
        ordered.extend(self._layers)
        ordered.append(self.demux)
        for below, above in zip(ordered, ordered[1:]):
            below.upper = above
            above.lower = below
        ordered[0].lower = None
        ordered[-1].upper = None

    @property
    def layers(self) -> List[FrameLayer]:
        """Bottom-to-top list including driver and demux."""
        ordered: List[FrameLayer] = []
        if self._bottom is not None:
            ordered.append(self._bottom)
        ordered.extend(self._layers)
        ordered.append(self.demux)
        return ordered

    def __repr__(self) -> str:
        names = " <-> ".join(layer.name for layer in self.layers)
        return f"LayerChain({names})"
