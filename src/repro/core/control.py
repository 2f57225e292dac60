"""The VirtualWire control-plane protocol (paper §5.2).

Control messages ride as payloads of raw Ethernet frames with the
experimental EtherType 0x88B5.  They carry scenario orchestration
(INIT/START/SHUTDOWN), the distributed-evaluation state exchange
(COUNTER_UPDATE, TERM_STATUS), and result reporting (ERROR_REPORT,
STOP_REPORT) back to the control node.

The channel itself is made reliable by :mod:`repro.core.reliable`: every
message that matters carries a per-peer sequence number and the
``FLAG_RELIABLE`` bit, is acknowledged by an ``ACK`` message echoing the
sequence number, and is retransmitted with exponential backoff until
acknowledged or the retry budget runs out (see docs/CONTROL_PLANE.md).

Counter values are signed 64-bit: scripts may drive a counter negative
(the Fig 5 invariant is literally ``CanTx < 0``).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from ..errors import ControlPlaneError
from ..net.frame import ETHERTYPE_VW_CONTROL


class ControlType(enum.Enum):
    INIT = 1
    INIT_ACK = 2
    START = 3
    SHUTDOWN = 4
    COUNTER_UPDATE = 5
    TERM_STATUS = 6
    ERROR_REPORT = 7
    STOP_REPORT = 8
    #: channel-level acknowledgement of a reliable message (a = acked seq's
    #: low 16 bits, unused; the acked sequence number travels in ``seq``).
    ACK = 9
    #: INIT table-checksum mismatch: the node refuses to arm the tables.
    INIT_NACK = 10
    #: liveness probe from the front-end; the channel-level ACK is the reply.
    HEARTBEAT = 11
    #: a rebooted node announcing itself to the control node for re-INIT.
    REGISTER = 12
    #: control-node broadcast: the named node rebooted — reset the reliable
    #: channel's per-peer state for it and replay any shared state it needs.
    NODE_RESET = 13
    #: a scenario node relaying a scripted RESTART request to the front-end
    #: (the rule fired away from the control node).
    RESTART_REPORT = 14


#: Message participates in the reliable-delivery protocol: it carries a
#: meaningful sequence number, is ACKed, deduplicated and retransmitted.
FLAG_RELIABLE = 0x01

_KNOWN_FLAGS = FLAG_RELIABLE

#: Exact on-wire payload size: type(1) flags(1) seq(4) a(2) b(8).
WIRE_SIZE = 16
_PAYLOAD = struct.Struct(">BBIHq")
_ETHERTYPE = ETHERTYPE_VW_CONTROL.to_bytes(2, "big")
#: wire byte -> type: a dict lookup where ``ControlType(...)`` would raise.
_TYPES = {t.value: t for t in ControlType}


@dataclass(frozen=True)
class ControlMessage:
    """A decoded control-plane message.

    Field use by type:

    ========== ================ ================
    type       a                b
    ========== ================ ================
    INIT       program id       table checksum
    INIT_ACK   program id       0
    INIT_NACK  program id       computed checksum
    START      program id       0
    SHUTDOWN   program id       0
    COUNTER_UPDATE counter id   value (signed)
    TERM_STATUS    term id      0/1
    ERROR_REPORT   condition id action id
    STOP_REPORT    condition id 0
    ACK            0            0 (acked seq in ``seq``)
    HEARTBEAT      0            0
    REGISTER       0            0
    NODE_RESET     node index   0
    RESTART_REPORT node index   boot delay (ns)
    ========== ================ ================

    ``seq`` is the per-(sender, peer) sequence number assigned by the
    reliable channel; ``flags`` carries :data:`FLAG_RELIABLE`.  A message
    with ``flags == 0`` is delivered exactly as received — no ordering,
    deduplication or acknowledgement — which is also the compatibility
    behaviour for hand-crafted frames in tests.
    """

    msg_type: ControlType
    a: int = 0
    b: int = 0
    seq: int = 0
    flags: int = 0

    @property
    def reliable(self) -> bool:
        return bool(self.flags & FLAG_RELIABLE)

    def to_payload(self) -> bytes:
        return _PAYLOAD.pack(self.msg_type.value, self.flags, self.seq, self.a, self.b)

    def to_frame(self, dst: bytes, src: bytes) -> bytes:
        """The control frame carrying this message from *src* to *dst*
        (packed MACs)."""
        return dst + src + _ETHERTYPE + self.to_payload()

    @classmethod
    def parse(cls, payload: bytes) -> "ControlMessage":
        if len(payload) < WIRE_SIZE:
            raise ControlPlaneError(
                f"control payload of {len(payload)} bytes is too short"
            )
        if len(payload) > WIRE_SIZE:
            raise ControlPlaneError(
                f"control payload of {len(payload)} bytes has trailing garbage "
                f"(expected exactly {WIRE_SIZE})"
            )
        type_value, flags, seq, a, b = _PAYLOAD.unpack(payload)
        msg_type = _TYPES.get(type_value)
        if msg_type is None:
            raise ControlPlaneError(f"unknown control type {type_value}")
        if flags & ~_KNOWN_FLAGS:
            raise ControlPlaneError(f"unknown control flags {flags:#04x}")
        return cls(msg_type, a, b, seq, flags)

    def __repr__(self) -> str:
        rel = f", seq={self.seq}" if self.reliable else ""
        return f"ControlMessage({self.msg_type.name}, a={self.a}, b={self.b}{rel})"
