"""UDP layer and datagram sockets.

The layer passes ports and payload bytes, never a datagram object: it
encodes from the socket's fields and parses to ``(src_port, dst_port,
payload)`` (:mod:`repro.net.fastpath`).  Ports are range-checked where a
user hands them in — ``bind`` and ``sendto`` — before any state changes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..errors import ChecksumError, PacketError, SocketError
from ..net.addresses import IpAddress
from ..net.fastpath import encode_udp_datagram, parse_udp_datagram
from ..net.ip import PROTO_UDP
from ..sim import Simulator
from .costs import CostModel
from .ipstack import IpLayer

#: Socket upcall: (payload, src_ip, src_port) -> None.
DatagramHandler = Callable[[bytes, IpAddress, int], None]

_EPHEMERAL_BASE = 49152


class UdpSocket:
    """A bound UDP endpoint."""

    def __init__(self, layer: "UdpLayer", port: int) -> None:
        self._layer = layer
        self.port = port
        self.on_receive: Optional[DatagramHandler] = None
        self.closed = False
        self.tx_datagrams = 0
        self.rx_datagrams = 0

    def sendto(self, payload: bytes, dst_ip: Union[str, IpAddress], dst_port: int) -> None:
        """Send *payload* to (dst_ip, dst_port)."""
        if self.closed:
            raise SocketError(f"sendto on closed UDP socket port {self.port}")
        if not 0 <= dst_port <= 0xFFFF:
            raise SocketError(f"UDP destination port out of range: {dst_port}")
        self.tx_datagrams += 1
        self._layer.send_datagram(self.port, IpAddress(dst_ip), dst_port, payload)

    def deliver(self, payload: bytes, src_ip: IpAddress, src_port: int) -> None:
        """Called by the layer when a datagram for this socket arrives.

        A socket closed while the datagram sat in ``udp:rx`` — by its
        application, or by a host crash — drops it as an unclaimed port.
        """
        if self.closed:
            self._layer.unclaimed_port_drops += 1
            return
        self.rx_datagrams += 1
        if self.on_receive is not None:
            self.on_receive(payload, src_ip, src_port)

    def close(self) -> None:
        """Release the port; safe to call twice."""
        if not self.closed:
            self.closed = True
            self._layer.release_port(self.port)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"UdpSocket(port={self.port}, {state})"


class UdpLayer:
    """Port demultiplexing and checksummed datagram I/O over an IpLayer."""

    def __init__(self, sim: Simulator, ip_layer: IpLayer, costs: CostModel) -> None:
        self.sim = sim
        self.ip_layer = ip_layer
        self.costs = costs
        self._sockets: Dict[int, UdpSocket] = {}
        self._next_ephemeral = _EPHEMERAL_BASE
        self.checksum_drops = 0
        self.unclaimed_port_drops = 0
        ip_layer.register_protocol(PROTO_UDP, self._receive)

    # -- socket management ----------------------------------------------------

    def bind(self, port: int = 0) -> UdpSocket:
        """Bind a socket to *port* (1..65535; 0 picks an ephemeral port)."""
        if port == 0:
            port = self._pick_ephemeral()
        elif not 0 < port <= 0xFFFF:
            raise SocketError(f"UDP port out of range: {port}")
        if port in self._sockets:
            raise SocketError(f"UDP port {port} is already bound")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def release_port(self, port: int) -> None:
        self._sockets.pop(port, None)

    def crash(self) -> None:
        """Host crash: every binding vanishes without close() running."""
        for socket in self._sockets.values():
            socket.closed = True
        self._sockets.clear()

    def _pick_ephemeral(self) -> int:
        for _ in range(0xFFFF - _EPHEMERAL_BASE):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = _EPHEMERAL_BASE
            if candidate not in self._sockets:
                return candidate
        raise SocketError("ephemeral UDP port space exhausted")

    # -- datapath -------------------------------------------------------------

    def send_datagram(
        self, src_port: int, dst_ip: IpAddress, dst_port: int, payload: bytes
    ) -> None:
        wire = encode_udp_datagram(src_port, dst_port, payload, self.ip_layer.local_ip, dst_ip)
        if self.costs.udp_ns > 0:
            self.sim.after(
                self.costs.udp_ns, self.ip_layer.send, "udp:tx", args=(dst_ip, PROTO_UDP, wire)
            )
        else:
            self.ip_layer.send(dst_ip, PROTO_UDP, wire)

    def _receive(self, src: IpAddress, data: bytes) -> None:
        try:
            src_port, dst_port, payload = parse_udp_datagram(data, src, self.ip_layer.local_ip)
        except (ChecksumError, PacketError):
            self.checksum_drops += 1
            return
        socket = self._sockets.get(dst_port)
        if socket is None:
            self.unclaimed_port_drops += 1
            return
        if self.costs.udp_ns > 0:
            self.sim.after(
                self.costs.udp_ns, socket.deliver, "udp:rx", args=(payload, src, src_port)
            )
        else:
            socket.deliver(payload, src, src_port)
