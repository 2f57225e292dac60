"""Reliable Link Layer frame format.

An RLL frame re-uses the outer Ethernet addressing of the frame it carries
and replaces the EtherType with :data:`repro.net.ETHERTYPE_RLL`.  The
payload is a small shim header followed, for DATA frames, by the original
EtherType and payload — so decapsulation can reconstruct the original frame
byte-for-byte, and the VirtualWire engine above the RLL keeps seeing
exactly the offsets its filter table was written against.

Shim layout (big endian):

====== ======= =====================================
offset size    field
====== ======= =====================================
0      1       kind: 1 = DATA, 2 = ACK
1      1       reserved (zero)
2      2       seq   (DATA: this frame's sequence)
4      2       ack   (cumulative: next seq expected)
6      2       original EtherType (DATA only)
====== ======= =====================================
"""

from __future__ import annotations

import struct
from typing import Optional

from ..errors import PacketError
from ..net.bytesutil import pack_u16, read_u16
from ..net.frame import ETHERTYPE_RLL, MAX_PAYLOAD, EthernetFrame

KIND_DATA = 1
KIND_ACK = 2

SHIM_LEN = 8
#: Sequence numbers live modulo 2^16.
SEQ_MOD = 1 << 16


def seq_add(seq: int, delta: int) -> int:
    return (seq + delta) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance from *b* to *a* in mod-2^16 space."""
    delta = (a - b) % SEQ_MOD
    return delta - SEQ_MOD if delta >= SEQ_MOD // 2 else delta


class RllFrame:
    """A decoded RLL shim plus (for DATA) the encapsulated original frame."""

    __slots__ = ("kind", "seq", "ack", "inner_ethertype", "inner_payload")

    def __init__(
        self,
        kind: int,
        seq: int,
        ack: int,
        inner_ethertype: int = 0,
        inner_payload: bytes = b"",
    ) -> None:
        if kind not in (KIND_DATA, KIND_ACK):
            raise PacketError(f"bad RLL frame kind: {kind}")
        self.kind = kind
        self.seq = seq % SEQ_MOD
        self.ack = ack % SEQ_MOD
        self.inner_ethertype = inner_ethertype
        self.inner_payload = bytes(inner_payload)

    # -- encapsulation ---------------------------------------------------

    @classmethod
    def data_for(cls, original: EthernetFrame, seq: int, ack: int) -> "RllFrame":
        """Build the DATA shim carrying *original*'s type and payload."""
        return cls(KIND_DATA, seq, ack, original.ethertype, original.payload)

    @classmethod
    def pure_ack(cls, ack: int) -> "RllFrame":
        return cls(KIND_ACK, 0, ack)

    def shim_bytes(self) -> bytes:
        return (
            bytes([self.kind, 0])
            + pack_u16(self.seq)
            + pack_u16(self.ack)
            + pack_u16(self.inner_ethertype)
            + self.inner_payload
        )

    def wrap(self, dst, src) -> EthernetFrame:
        """Produce the on-wire RLL Ethernet frame."""
        return EthernetFrame(dst, src, ETHERTYPE_RLL, self.shim_bytes())

    def unwrap(self, outer: EthernetFrame) -> EthernetFrame:
        """Reconstruct the original frame a DATA shim carries."""
        if self.kind != KIND_DATA:
            raise PacketError("only DATA frames carry an inner frame")
        return EthernetFrame(outer.dst, outer.src, self.inner_ethertype, self.inner_payload)

    # -- decoding ------------------------------------------------------------

    @classmethod
    def parse(cls, payload: bytes) -> "RllFrame":
        if len(payload) < SHIM_LEN:
            raise PacketError(f"RLL shim of {len(payload)} bytes is too short")
        return cls(
            kind=payload[0],
            seq=read_u16(payload, 2),
            ack=read_u16(payload, 4),
            inner_ethertype=read_u16(payload, 6),
            inner_payload=payload[SHIM_LEN:],
        )

    @classmethod
    def maybe_parse(cls, frame: EthernetFrame) -> Optional["RllFrame"]:
        """Parse if *frame* is an RLL frame, else None."""
        if frame.ethertype != ETHERTYPE_RLL:
            return None
        return cls.parse(frame.payload)

    def __repr__(self) -> str:
        kind = "DATA" if self.kind == KIND_DATA else "ACK"
        return f"RllFrame({kind}, seq={self.seq}, ack={self.ack})"


# -- what RllLayer runs per frame: the shim spliced into raw frame bytes --

#: RLL EtherType + kind + reserved + seq + ack, the 8 bytes inserted at
#: offset 12 when encapsulating (the inner EtherType slides to offset 20).
_SHIM_INSERT = struct.Struct(">HBBHH")


def encap_data_fast(frame_bytes: bytes, seq: int, ack: int) -> bytes:
    """DATA encapsulation on raw bytes.

    Equals ``RllFrame.data_for(frame, seq, ack).wrap(frame.dst,
    frame.src).to_bytes()``: the outer frame keeps the inner addressing, so
    the wire form is the original frame with 8 shim bytes spliced in after
    the source MAC.  Rejects what :class:`EthernetFrame` would: a shimmed
    payload over the MTU.
    """
    if len(frame_bytes) - 6 > MAX_PAYLOAD:
        raise PacketError(
            f"payload of {len(frame_bytes) - 6} bytes exceeds Ethernet MTU {MAX_PAYLOAD}"
        )
    return (
        frame_bytes[:12]
        + _SHIM_INSERT.pack(ETHERTYPE_RLL, KIND_DATA, 0, seq, ack)
        + frame_bytes[12:]
    )


#: EtherType + full 8-byte shim of a pure ACK (inner EtherType zero).
_ACK_TAIL = struct.Struct(">HBBHHH")


def encap_ack_fast(dst_packed: bytes, src_packed: bytes, ack: int) -> bytes:
    """Pure-ACK frame bytes, equal to ``pure_ack(ack).wrap(dst, src).to_bytes()``."""
    return dst_packed + src_packed + _ACK_TAIL.pack(ETHERTYPE_RLL, KIND_ACK, 0, 0, ack, 0)


def decap_data_fast(frame_bytes: bytes) -> bytes:
    """Reconstruct the original frame from DATA frame bytes.

    Equals ``shim.unwrap(outer).to_bytes()``: strip the 8 shim bytes so the
    inner EtherType (at offset 20) lands back at offset 12.
    """
    return frame_bytes[:12] + frame_bytes[20:]
