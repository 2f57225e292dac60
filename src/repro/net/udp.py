"""UDP datagrams (RFC 768): the stack's value class (:mod:`repro.net.fastpath`
owns the wire form, with real pseudo-header checksums)."""

from __future__ import annotations

from ..errors import PacketError

HEADER_LEN = 8


class UdpDatagram:
    """A UDP datagram's ports and payload."""

    __slots__ = ("src_port", "dst_port", "payload")

    def __init__(self, src_port: int, dst_port: int, payload: bytes) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise PacketError(f"UDP {name} out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = bytes(payload)

    def __repr__(self) -> str:
        return (
            f"UdpDatagram({self.src_port} -> {self.dst_port}, "
            f"{len(self.payload)}B payload)"
        )
