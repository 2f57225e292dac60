"""Bulk and rate-paced TCP senders — the workloads behind Fig 7.

:class:`BulkSender` pushes a fixed byte count as fast as TCP allows.
:class:`PacedSender` offers data at a configured rate ("offered data
pumping rate" on Fig 7's x axis), so throughput can be measured as a
function of offered load.
"""

from __future__ import annotations

from typing import Optional

from ..sim import NS_PER_SEC, Simulator
from ..stack.node import Host
from ..tcp.connection import TcpConnection

#: BulkSender keeps at most this many bytes queued in TCP at a time.
BULK_CHUNK = 64 * 1024
#: PacedSender offers one chunk per tick and stops offering (counts the
#: chunk refused) while TCP holds this many unsent bytes.
PACED_CHUNK = 1024
PACED_BUFFER_CAP = 256 * 1024


class BulkReceiver:
    """Listens and counts received bytes (set ``retain`` to keep them)."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.retain = False
        self.bytes_received = 0
        self.data = bytearray()
        self.connection: Optional[TcpConnection] = None
        self.first_byte_at: Optional[int] = None
        self.last_byte_at: Optional[int] = None
        host.tcp.listen(port, self._on_accept)

    def _on_accept(self, conn: TcpConnection) -> None:
        self.connection = conn
        conn.on_data = self._on_data

    def _on_data(self, data: bytes) -> None:
        if self.first_byte_at is None:
            self.first_byte_at = self.host.sim.now
        self.last_byte_at = self.host.sim.now
        self.bytes_received += len(data)
        if self.retain:
            self.data.extend(data)

    def goodput_bps(self) -> float:
        """Application-level throughput over the active transfer window."""
        if (
            self.first_byte_at is None
            or self.last_byte_at is None
            or self.last_byte_at <= self.first_byte_at
        ):
            return 0.0
        elapsed = self.last_byte_at - self.first_byte_at
        return self.bytes_received * 8 * NS_PER_SEC / elapsed


class BulkSender:
    """Connects and sends *total_bytes* as fast as the window allows."""

    def __init__(
        self,
        host: Host,
        server_ip,
        server_port: int,
        total_bytes: int,
        local_port: int = 0,
    ) -> None:
        self.host = host
        self.total_bytes = total_bytes
        self.chunk = BULK_CHUNK
        self._sent = 0
        self.connection = host.tcp.connect(
            server_ip, server_port, local_port=local_port
        )
        self.connection.on_established = self._feed

    def _feed(self) -> None:
        # Keep the socket buffer topped up without materialising the whole
        # transfer at once.
        while (
            self._sent < self.total_bytes
            and self.connection.send_queue_bytes < self.chunk
        ):
            size = min(self.chunk, self.total_bytes - self._sent)
            self.connection.send(bytes(size))
            self._sent += size
        if self._sent < self.total_bytes:
            self.host.sim.after(1_000_000, self._feed, "bulk:feed")


class PacedSender:
    """Offers data to TCP at a fixed rate for a fixed duration.

    The offered rate is enforced by handing TCP one MSS-sized chunk every
    ``chunk_bits / rate`` of virtual time; if TCP cannot drain the socket
    buffer at that rate the buffer is capped, so the *offered* load stays
    constant while the *carried* load is whatever the path sustains —
    exactly the semantics of Fig 7's x axis.
    """

    def __init__(
        self,
        host: Host,
        server_ip,
        server_port: int,
        offered_bps: float,
        duration_ns: int,
        local_port: int = 0,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.offered_bps = offered_bps
        self.duration_ns = duration_ns
        self.chunk = PACED_CHUNK
        self.buffer_cap = PACED_BUFFER_CAP
        self.offered_bytes = 0
        self.refused_bytes = 0
        self._deadline = None
        self.connection = host.tcp.connect(server_ip, server_port, local_port=local_port)
        self.connection.on_established = self._begin

    def _begin(self) -> None:
        self._deadline = self.sim.now + self.duration_ns
        self._interval = max(1, int(self.chunk * 8 * NS_PER_SEC / self.offered_bps))
        self._tick()

    def _tick(self) -> None:
        if self.sim.now >= self._deadline or not self.connection.is_established:
            return
        if self.connection.send_queue_bytes < self.buffer_cap:
            self.connection.send(bytes(self.chunk))
            self.offered_bytes += self.chunk
        else:
            self.refused_bytes += self.chunk
        self.sim.after(self._interval, self._tick, "paced:tick")
