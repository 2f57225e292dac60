"""IPv4 packets: the stack's value class (:mod:`repro.net.fastpath` owns the
wire form).

The wire form is the fixed 20-byte header with a real RFC 1071 header
checksum and no options, which pins the transport header at frame offset
34 — the offset every filter in the paper's Fig 2 relies on.
Fragmentation is not modelled (the testbed MTU is uniform), but the DF bit
is carried so MODIFY faults can flip it.
"""

from __future__ import annotations

from typing import Union

from ..errors import PacketError
from .addresses import IpAddress

HEADER_LEN = 20
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_DEFAULT_TTL = 64


class Ipv4Packet:
    """An IPv4 packet's header fields and payload (fixed-length header)."""

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "payload",
        "ttl",
        "tos",
        "ident",
        "dont_fragment",
    )

    def __init__(
        self,
        src: Union[str, bytes, IpAddress],
        dst: Union[str, bytes, IpAddress],
        protocol: int,
        payload: bytes,
        ttl: int = _DEFAULT_TTL,
        tos: int = 0,
        ident: int = 0,
        dont_fragment: bool = True,
    ) -> None:
        self.src = IpAddress(src)
        self.dst = IpAddress(dst)
        if not 0 <= protocol <= 0xFF:
            raise PacketError(f"IP protocol out of range: {protocol}")
        if not 0 <= ttl <= 0xFF:
            raise PacketError(f"TTL out of range: {ttl}")
        if not 0 <= ident <= 0xFFFF:
            raise PacketError(f"IP ident out of range: {ident}")
        if not 0 <= tos <= 0xFF:
            raise PacketError(f"TOS out of range: {tos}")
        self.protocol = protocol
        self.payload = bytes(payload)
        self.ttl = ttl
        self.tos = tos
        self.ident = ident
        self.dont_fragment = dont_fragment

    def __repr__(self) -> str:
        return (
            f"Ipv4Packet({self.src} -> {self.dst}, proto={self.protocol}, "
            f"{len(self.payload)}B payload, ttl={self.ttl})"
        )
