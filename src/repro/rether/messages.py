"""Rether control frames, on bytes.

Rether control frames use EtherType ``0x9900`` — the value the paper's
Fig 6 filter table matches with the tuple ``(12 2 0x9900)`` — and carry a
small fixed header whose first two bytes are the message type, matched by
``(14 2 0x0001)`` (token) and ``(14 2 0x0010)`` (token ack).

Header layout (big endian, frame offsets in parentheses):

====== ======= ==========================================================
offset size    field
====== ======= ==========================================================
0 (14) 2       type: 0x0001 token, 0x0010 token-ack, 0x0020 join
2 (16) 2       generation — bumped when a lost token is regenerated
4 (18) 4       token sequence — increments on every hop
8 (22) 8       cycle start, ns — stamped by the ring master each rotation
====== ======= ==========================================================

The layer reads the header in place with :data:`HEADER` and builds whole
frames with :func:`encode_frame`; no message object exists per frame.
"""

from __future__ import annotations

import struct

from ..net.frame import ETHERTYPE_RETHER

TYPE_TOKEN = 0x0001
TYPE_TOKEN_ACK = 0x0010
#: A recovered node announcing itself back into the ring (broadcast).
TYPE_JOIN = 0x0020
MESSAGE_TYPES = frozenset((TYPE_TOKEN, TYPE_TOKEN_ACK, TYPE_JOIN))

HEADER_LEN = 16
#: type, generation, seq, cycle start: read in place at frame offset 14.
HEADER = struct.Struct(">HHIQ")
_ETHERTYPE = ETHERTYPE_RETHER.to_bytes(2, "big")


def encode_frame(
    dst: bytes, src: bytes, msg_type: int, generation: int, seq: int, cycle_start: int = 0
) -> bytes:
    """The 30 bytes of one Rether control frame from *dst* and *src*
    (packed MACs) and in-range header fields."""
    return dst + src + _ETHERTYPE + HEADER.pack(msg_type, generation, seq, cycle_start)
