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

from ..errors import PacketError
from ..net.frame import ETHERTYPE_RLL, MAX_PAYLOAD

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


# -- what RllLayer runs per frame: the shim spliced into raw frame bytes --

#: RLL EtherType + kind + reserved + seq + ack, the 8 bytes inserted at
#: offset 12 when encapsulating (the inner EtherType slides to offset 20).
_SHIM_INSERT = struct.Struct(">HBBHH")


def encap_data_fast(frame_bytes: bytes, seq: int, ack: int) -> bytes:
    """DATA encapsulation on raw bytes.

    Equals the reference codec's DATA shim wrapped in the inner frame's own
    addressing (tests/oracles/codec.py): the outer frame keeps the inner
    addressing, so the wire form is the original frame with 8 shim bytes
    spliced in after the source MAC.  Rejects what the reference would: a
    shimmed payload over the MTU.
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
    """Pure-ACK frame bytes, equal to the reference codec's pure ACK wrapped
    for *dst* from *src*."""
    return dst_packed + src_packed + _ACK_TAIL.pack(ETHERTYPE_RLL, KIND_ACK, 0, 0, ack, 0)


def decap_data_fast(frame_bytes: bytes) -> bytes:
    """Reconstruct the original frame from DATA frame bytes.

    Equals the reference codec's unwrapped inner frame: strip the 8 shim
    bytes so the inner EtherType (at offset 20) lands back at offset 12.
    """
    return frame_bytes[:12] + frame_bytes[20:]
