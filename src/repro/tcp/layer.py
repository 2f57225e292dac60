"""The host-level TCP layer: demultiplexing, listeners, segment I/O."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import ChecksumError, PacketError, SocketError
from ..net.addresses import IpAddress
from ..net.fastpath import encode_tcp_segment, parse_tcp_segment, tcp_flow_sum
from ..net.ip import PROTO_TCP
from ..net.tcp_segment import FLAG_ACK, FLAG_RST, TcpSegment
from ..sim import Simulator
from .congestion import CongestionControl
from .connection import TcpConnection, TcpState

_EPHEMERAL_BASE = 32768
#: (local port, packed remote IP, remote port): hashed without leaving C.
_ConnKey = Tuple[int, bytes, int]


class TcpListener:
    """A passive socket accepting connections on a port."""

    def __init__(
        self,
        layer: "TcpLayer",
        port: int,
        on_accept: Optional[Callable[[TcpConnection], None]] = None,
    ) -> None:
        self.layer = layer
        self.port = port
        self.on_accept = on_accept
        self.accepted = 0
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.layer._listeners.pop(self.port, None)

    def _incoming_syn(self, src: IpAddress, seg: TcpSegment) -> TcpConnection:
        conn = self.layer._create_connection(
            local_port=self.port,
            remote_ip=src,
            remote_port=seg.src_port,
            congestion=CongestionControl(),
        )
        conn.open_passive(seg)
        self.accepted += 1
        if self.on_accept is not None:
            self.on_accept(conn)
        return conn


class TcpLayer:
    """Registers with the IP layer and owns all TCP state on a host."""

    def __init__(self, sim: Simulator, host, costs) -> None:
        self.sim = sim
        self.host = host
        self.costs = costs
        self._connections: Dict[_ConnKey, TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._next_ephemeral = _EPHEMERAL_BASE
        self._iss_stream = sim.random.stream(f"tcp:iss:{host.name}")
        self.checksum_drops = 0
        self.resets_sent = 0
        self.orphan_segments = 0
        host.ip_layer.register_protocol(PROTO_TCP, self._receive)

    # -- public API --------------------------------------------------------

    def connect(
        self,
        remote_ip: Union[str, IpAddress],
        remote_port: int,
        local_port: int = 0,
        congestion: Optional[CongestionControl] = None,
        on_established: Optional[Callable[[], None]] = None,
    ) -> TcpConnection:
        """Open an active connection; returns immediately with the

        connection object while the handshake proceeds in virtual time.
        Ports are 0..65535 (a local port of 0 picks an ephemeral one); a bad
        one raises :class:`SocketError` before any state is made.
        """
        for port in (remote_port, local_port):
            if not 0 <= port <= 0xFFFF:
                raise SocketError(f"TCP port out of range: {port}")
        remote_ip = IpAddress(remote_ip)
        if local_port == 0:
            local_port = self._pick_ephemeral(remote_ip, remote_port)
        conn = self._create_connection(
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            congestion=congestion or CongestionControl(),
        )
        if on_established is not None:
            conn.on_established = on_established
        conn.open_active()
        return conn

    def listen(
        self,
        port: int,
        on_accept: Optional[Callable[[TcpConnection], None]] = None,
    ) -> TcpListener:
        """Start accepting connections on *port*; the server side always
        runs the stock :class:`CongestionControl`.  *port* is 1..65535."""
        if not 0 < port <= 0xFFFF:
            raise SocketError(f"TCP port out of range: {port}")
        if port in self._listeners:
            raise SocketError(f"TCP port {port} is already listening")
        listener = TcpListener(self, port, on_accept)
        self._listeners[port] = listener
        return listener

    def connections(self):
        """Snapshot of live connections (order is deterministic)."""
        return list(self._connections.values())

    # -- plumbing used by TcpConnection -------------------------------------

    def send_segment(self, conn: TcpConnection, seg: TcpSegment) -> None:
        """Serialise and hand a segment to IP, charging the TCP CPU cost."""
        wire = encode_tcp_segment(seg, conn.flow_sum)
        self.sim.defer(
            self.costs.tcp_ns, self.host.ip_layer.send, "tcp:tx", conn.remote_ip, PROTO_TCP, wire
        )

    def forget(self, conn: TcpConnection) -> None:
        """Remove a closed connection from the demux table."""
        self._connections.pop(self._key(conn.local_port, conn.remote_ip, conn.remote_port), None)

    def crash(self) -> None:
        """Host crash: destroy every connection and listener in place.

        No FINs, no RSTs, no callbacks — the memory holding this state is
        simply gone.  Peers discover the death organically: their
        retransmissions go unanswered, and anything sent after a reboot
        hits the fresh layer's orphan-segment RST path.
        """
        for conn in list(self._connections.values()):
            conn.destroy()
        self._connections.clear()
        self._listeners.clear()

    # -- internals ------------------------------------------------------------

    def _create_connection(
        self,
        local_port: int,
        remote_ip: IpAddress,
        remote_port: int,
        congestion: CongestionControl,
    ) -> TcpConnection:
        key = self._key(local_port, remote_ip, remote_port)
        if key in self._connections:
            raise SocketError(f"connection {key} already exists")
        conn = TcpConnection(
            layer=self,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            congestion=congestion,
            iss=self._iss_stream.randint(0, (1 << 31) - 1),
            flow_sum=tcp_flow_sum(self.host.ip_layer.local_ip, remote_ip),
        )
        self._connections[key] = conn
        return conn

    def _pick_ephemeral(self, remote_ip: IpAddress, remote_port: int) -> int:
        for _ in range(0xFFFF - _EPHEMERAL_BASE):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = _EPHEMERAL_BASE
            if self._key(candidate, remote_ip, remote_port) not in self._connections:
                return candidate
        raise SocketError("ephemeral TCP port space exhausted")

    @staticmethod
    def _key(local_port: int, remote_ip: IpAddress, remote_port: int) -> _ConnKey:
        return (local_port, remote_ip.packed, remote_port)

    def _receive(self, src: IpAddress, payload: bytes) -> None:
        try:
            seg = parse_tcp_segment(payload, tcp_flow_sum(self.host.ip_layer.local_ip, src))
        except (ChecksumError, PacketError):
            self.checksum_drops += 1
            return
        self.sim.defer(self.costs.tcp_ns, self._dispatch, "tcp:rx", src, seg)

    def _dispatch(self, src: IpAddress, seg: TcpSegment) -> None:
        conn = self._connections.get(self._key(seg.dst_port, src, seg.src_port))
        if conn is not None and conn.state is not TcpState.CLOSED:
            conn.handle_segment(seg)
            return
        listener = self._listeners.get(seg.dst_port)
        if listener is not None and seg.is_syn and not seg.is_ack:
            listener._incoming_syn(src, seg)
            return
        self.orphan_segments += 1
        if not seg.is_rst:
            self._send_reset(src, seg)

    def _send_reset(self, src: IpAddress, seg: TcpSegment) -> None:
        self.resets_sent += 1
        rst_seq = seg.ack if seg.is_ack else 0
        rst = TcpSegment(
            seg.dst_port,
            seg.src_port,
            rst_seq,
            (seg.seq + seg.seq_space) & 0xFFFFFFFF,
            FLAG_RST | FLAG_ACK,
            0,
        )
        wire = encode_tcp_segment(rst, tcp_flow_sum(self.host.ip_layer.local_ip, src))
        self.host.ip_layer.send(src, PROTO_TCP, wire)
