"""TCP segments: the stack's value class and the flag bits
(:mod:`repro.net.fastpath` owns the wire form).

Only the fixed 20-byte header is emitted (no options), which keeps the wire
layout identical to the one the paper's filter table addresses: with a
14-byte Ethernet header and 20-byte IPv4 header in front, the TCP source
port sits at frame offset 34, the destination port at 36, the sequence
number at 38, the acknowledgement number at 42, and the flags byte at 47 —
exactly the tuples in Fig 2 (e.g. ``(47 1 0x10 0x10)`` tests the ACK bit).
"""

from __future__ import annotations

from ..errors import PacketError

HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

_FLAG_NAMES = (
    (FLAG_SYN, "SYN"),
    (FLAG_FIN, "FIN"),
    (FLAG_RST, "RST"),
    (FLAG_PSH, "PSH"),
    (FLAG_ACK, "ACK"),
    (FLAG_URG, "URG"),
)


def flags_to_str(flags: int) -> str:
    """Render a flag byte as e.g. ``SYN|ACK`` (``.`` when empty)."""
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "."


class TcpSegment:
    """A TCP segment's header fields and payload."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "payload")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload: bytes = b"",
    ) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise PacketError(f"TCP {name} out of range: {port}")
        for name, value in (("seq", seq), ("ack", ack)):
            if not 0 <= value <= 0xFFFFFFFF:
                raise PacketError(f"TCP {name} out of range: {value}")
        if not 0 <= flags <= 0x3F:
            raise PacketError(f"TCP flags out of range: {flags:#x}")
        if not 0 <= window <= 0xFFFF:
            raise PacketError(f"TCP window out of range: {window}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload = bytes(payload)

    # -- flag accessors -------------------------------------------------

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def seq_space(self) -> int:
        """Sequence-number space consumed: payload plus SYN/FIN phantom bytes."""
        return len(self.payload) + (1 if self.is_syn else 0) + (1 if self.is_fin else 0)

    def __repr__(self) -> str:
        return (
            f"TcpSegment({self.src_port} -> {self.dst_port}, "
            f"seq={self.seq}, ack={self.ack}, [{flags_to_str(self.flags)}], "
            f"win={self.window}, {len(self.payload)}B payload)"
        )
