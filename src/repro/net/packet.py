"""A lazy byte view over one captured frame, for traces and journeys.

The VirtualWire engine treats packets as raw bytes (the filter table matches
by offset), while the trace renderer and the journey correlator want header
fields.  :class:`FrameView` reads them straight off the wire bytes: on first
use it unpacks each header once with a precompiled :mod:`struct` layout and
keeps the fields, so a summary and a digest of the same frame parse it once
between them.  It is total — arbitrary bytes (a MODIFY fault is supposed to
produce corrupt packets) degrade a layer to ``None``, never raise — and it
accepts and rejects exactly what the data path's parsers accept with
checksums unchecked (tests/props/test_props_frameview.py holds it to the
object-per-layer reference in tests/oracles/codec.py).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional, Tuple

from .fastpath import TCP_HEADER, UDP_HEADER
from .frame import ETHERTYPE_IPV4, ETHERTYPE_RETHER, MAX_PAYLOAD
from .ip import PROTO_TCP, PROTO_UDP
from .tcp_segment import FLAG_FIN, FLAG_RST, FLAG_SYN, TcpSegment, flags_to_str

#: dst_mac, src_mac, ethertype.
_ETHERNET = struct.Struct(">6s6sH")
#: version|IHL, tos, total_length, ident, flags|fragment, ttl, protocol,
#: checksum, src_ip, dst_ip.
_IPV4 = struct.Struct(">BBHHHBBH4s4s")

#: Frame offsets of the IPv4 header, the transport header and the TCP payload.
_IP_AT, _L4_AT, _TCP_DATA_AT = 14, 34, 54

_DIGEST_BYTES = 8

_Layers = Tuple[Optional[tuple], Optional[tuple], Optional[tuple], Optional[tuple]]
_RUNT: _Layers = (None, None, None, None)


def _parse(data: bytes) -> _Layers:
    """The unpacked (Ethernet, IPv4, TCP, UDP) headers, each None where absent.

    Ethernet needs a header and at most an MTU of payload; IPv4 needs version
    4, a 20-byte header, a total length within the frame and no fragment
    bits (it bounds the transport); TCP needs a 20-byte header, UDP a length
    field within its bounds.
    """
    n = len(data)
    if n < _IP_AT or n - _IP_AT > MAX_PAYLOAD:
        return _RUNT
    eth = _ETHERNET.unpack_from(data)
    if eth[2] != ETHERTYPE_IPV4 or n < _L4_AT:
        return eth, None, None, None
    ip = _IPV4.unpack_from(data, _IP_AT)
    if ip[0] != 0x45 or not 20 <= ip[2] <= n - _IP_AT or ip[4] & 0x3FFF:
        return eth, None, None, None
    room = ip[2] - 20
    tcp = udp = None
    if ip[6] == PROTO_TCP and room >= 20:
        tcp = TCP_HEADER.unpack_from(data, _L4_AT)
        if tcp[4] >> 12 != 5:
            tcp = None
    elif ip[6] == PROTO_UDP and room >= 8:
        udp = UDP_HEADER.unpack_from(data, _L4_AT)
        if not 8 <= udp[2] <= room:
            udp = None
    return eth, ip, tcp, udp


def _dotted(packed: bytes) -> str:
    return "%d.%d.%d.%d" % tuple(packed)


class FrameView:
    """A lazily parsed, corruption-tolerant view over raw frame bytes."""

    __slots__ = ("data", "_layers")

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self._layers: Optional[_Layers] = None

    def _parsed(self) -> _Layers:
        if self._layers is None:
            self._layers = _parse(self.data)
        return self._layers

    # -- layer accessors --------------------------------------------------

    @property
    def ethertype(self) -> Optional[int]:
        """The EtherType, or None for a runt (or over-MTU) frame."""
        eth = self._parsed()[0]
        return None if eth is None else eth[2]

    @property
    def tcp(self) -> Optional[TcpSegment]:
        """The TCP layer if this is a parseable TCP frame, else None."""
        _, ip, tcp, _ = self._parsed()
        if tcp is None:
            return None
        src_port, dst_port, seq, ack, offset_flags, window, _, _ = tcp
        payload = self.data[_TCP_DATA_AT : _IP_AT + ip[2]]
        return TcpSegment(src_port, dst_port, seq, ack, offset_flags & 0x3F, window, payload)

    @property
    def is_rether(self) -> bool:
        return self.ethertype == ETHERTYPE_RETHER

    def __len__(self) -> int:
        return len(self.data)

    # -- renderings ---------------------------------------------------------

    def digest(self) -> str:
        """The flow-invariant digest :mod:`repro.analysis.journey` joins on.

        A TCP frame hashes the fields naming its logical segment (MACs, IPs,
        ports, seq, flags, payload, and ack only for a pure ACK), so a
        retransmission digests like its original; any other frame hashes
        its raw bytes.
        """
        _, ip, tcp, _ = self._parsed()
        data = self.data
        if tcp is None:
            material = b"raw|" + data
        else:
            flags = tcp[4] & 0x3F
            payload = data[_TCP_DATA_AT : _IP_AT + ip[2]]
            pure_ack = not payload and not flags & (FLAG_SYN | FLAG_FIN | FLAG_RST)
            material = b"|".join(
                (
                    b"tcp",
                    data[6:12],
                    data[0:6],
                    data[26:30],
                    data[30:34],
                    data[34:36],
                    data[36:38],
                    data[38:42],
                    data[42:46] if pure_ack else bytes(4),
                    bytes((flags,)),
                    payload,
                )
            )
        return hashlib.blake2b(material, digest_size=_DIGEST_BYTES).hexdigest()

    def summary(self) -> str:
        """One-line description, tcpdump style, for traces and reports."""
        eth, ip, tcp, udp = self._parsed()
        if eth is None:
            return f"<runt frame, {len(self.data)}B>"
        if ip is not None:
            src, dst = _dotted(ip[8]), _dotted(ip[9])
            if tcp is not None:
                return (
                    f"TCP {src}:{tcp[0]} > {dst}:{tcp[1]} "
                    f"[{flags_to_str(tcp[4] & 0x3F)}] seq={tcp[2]} ack={tcp[3]} "
                    f"len={ip[2] - 40}"
                )
            if udp is not None:
                return f"UDP {src}:{udp[0]} > {dst}:{udp[1]} len={udp[2] - 8}"
            return f"IP {src} > {dst} proto={ip[6]} len={ip[2] - 20}"
        dst_mac, src_mac, ethertype = eth
        addresses = f"{src_mac.hex(':')} > {dst_mac.hex(':')}"
        if ethertype == ETHERTYPE_RETHER:
            return f"RETHER {addresses} len={len(self.data) - _IP_AT}"
        return f"ETH {addresses} type={ethertype:#06x} len={len(self.data) - _IP_AT}"

    def __repr__(self) -> str:
        return f"FrameView({self.summary()})"
