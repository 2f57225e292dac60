"""The frame codec of the data path: allocation-lean header (de)serialisation.

This module decides the wire format of Ethernet/IPv4, TCP and UDP in
``src``; the trace tier's :class:`repro.net.packet.FrameView` reads the same
headers with the same layouts.  Every function here produces the wire bytes
and the accept/reject decisions of the object-per-layer reference codec in
tests/oracles/codec.py — pinned by the differential property tests
(tests/props/test_props_codec.py) and the golden harness
(tests/differential/) — without building an object per layer:

* checksums are computed from integer field values plus one C-level
  pass over the payload (:func:`repro.net.bytesutil.checksum_sum16`), so
  headers are never serialised twice and pseudo-headers never materialise;
* whole headers are packed/unpacked with precompiled :mod:`struct` layouts
  instead of per-field ``bytes`` concatenation;
* below TCP the parsers hand back plain fields — ``(src, dst, protocol,
  payload)`` for IPv4, ``(src_port, dst_port, payload)`` for UDP — and the
  UDP encoder takes them; only TCP's segment, the vocabulary of its state
  machine, is an object, built with ``__new__`` to skip constructor
  revalidation of fields that came off the wire in range by construction;
* MAC/IP addresses are interned: a testbed has a handful of stations, so
  every parse returns the same immutable address objects instead of
  allocating new ones per packet.

The IP, UDP, TCP and RLL layers call these functions directly; Rether and
the control plane pack and read their fixed headers with one ``struct``
each (:mod:`repro.rether.messages`, :mod:`repro.core.control`) and intern
sender MACs here.  See docs/PERF.md.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..errors import ChecksumError, PacketError
from .addresses import IpAddress, MacAddress
from .bytesutil import checksum_sum16, fold_checksum
from .frame import ETHERTYPE_IPV4, MAX_PAYLOAD
from .frame import HEADER_LEN as ETH_HEADER_LEN
from .ip import HEADER_LEN as IP_HEADER_LEN
from .ip import PROTO_TCP, PROTO_UDP
from .tcp_segment import TcpSegment

__all__ = [
    "intern_ip",
    "intern_mac",
    "pseudo_header_sum",
    "tcp_flow_sum",
    "encode_tcp_segment",
    "encode_udp_datagram",
    "encode_ipv4_frame",
    "parse_ipv4_frame",
    "parse_tcp_segment",
    "parse_udp_datagram",
]

# -- address interning ------------------------------------------------------

_MAC_CACHE: Dict[bytes, MacAddress] = {}
_IP_CACHE: Dict[bytes, IpAddress] = {}


def intern_mac(packed: bytes) -> MacAddress:
    """The canonical :class:`MacAddress` for 6 packed bytes (cached)."""
    mac = _MAC_CACHE.get(packed)
    if mac is None:
        mac = _MAC_CACHE.setdefault(bytes(packed), MacAddress(packed))
    return mac


def intern_ip(packed: bytes) -> IpAddress:
    """The canonical :class:`IpAddress` for 4 packed bytes (cached)."""
    ip = _IP_CACHE.get(packed)
    if ip is None:
        ip = _IP_CACHE.setdefault(bytes(packed), IpAddress(packed))
    return ip


# -- checksum building blocks ----------------------------------------------


def pseudo_header_sum(src_packed: bytes, dst_packed: bytes, protocol: int, length: int) -> int:
    """Big-endian word sum of the RFC 793/768 pseudo header, from integers."""
    s = int.from_bytes(src_packed, "big")
    d = int.from_bytes(dst_packed, "big")
    return (s >> 16) + (s & 0xFFFF) + (d >> 16) + (d & 0xFFFF) + protocol + length


def tcp_flow_sum(local_ip: IpAddress, remote_ip: IpAddress) -> int:
    """What a TCP segment's checksum owes the connection, not the segment:
    the pseudo header's two addresses and protocol number.  Addition
    commutes, so one value serves both directions of the flow;
    :func:`encode_tcp_segment` adds the segment length."""
    return pseudo_header_sum(local_ip.packed, remote_ip.packed, PROTO_TCP, 0)


# -- encoders ---------------------------------------------------------------

#: src_port, dst_port, seq, ack, data_offset|flags, window, checksum, urgent.
TCP_HEADER = struct.Struct(">HHIIHHHH")
#: src_port, dst_port, length, checksum.
UDP_HEADER = struct.Struct(">HHHH")
#: dst_mac, src_mac, ethertype | ver_ihl_tos, total_len, ident, flags_frag,
#: ttl, protocol, checksum, src_ip, dst_ip.
_ETH_IP_HDR = struct.Struct(">6s6sHHHHHBBH4s4s")


def encode_tcp_segment(seg: TcpSegment, flow_sum: int) -> bytes:
    """The reference's ``tcp_to_bytes(seg, src_ip, dst_ip)``, without the
    object tree.

    *flow_sum* is :func:`tcp_flow_sum` of the two endpoints.
    """
    payload = seg.payload
    seq, ack = seg.seq, seg.ack
    data_offset_flags = (5 << 12) | seg.flags
    total = (
        flow_sum
        + 20
        + len(payload)
        + seg.src_port
        + seg.dst_port
        + (seq >> 16)
        + (seq & 0xFFFF)
        + (ack >> 16)
        + (ack & 0xFFFF)
        + data_offset_flags
        + seg.window
    )
    if payload:
        total += checksum_sum16(payload)
    header = TCP_HEADER.pack(
        seg.src_port,
        seg.dst_port,
        seq,
        ack,
        data_offset_flags,
        seg.window,
        fold_checksum(total),
        0,
    )
    return header + payload if payload else header


def encode_udp_datagram(
    src_port: int, dst_port: int, payload: bytes, src_ip: IpAddress, dst_ip: IpAddress
) -> bytes:
    """The reference's ``udp_to_bytes`` of the datagram with these fields,
    without the object.  The ports are the caller's to range-check (the
    socket API does)."""
    length = 8 + len(payload)
    total = (
        pseudo_header_sum(src_ip.packed, dst_ip.packed, PROTO_UDP, length)
        + src_port
        + dst_port
        + length
    )
    if payload:
        total += checksum_sum16(payload)
    # RFC 768: a computed zero is transmitted as all-ones.
    checksum = fold_checksum(total) or 0xFFFF
    header = UDP_HEADER.pack(src_port, dst_port, length, checksum)
    return header + payload if payload else header


def encode_ipv4_frame(
    dst_mac: bytes,
    src_mac: bytes,
    src_ip: bytes,
    dst_ip: bytes,
    protocol: int,
    ident: int,
    payload: bytes,
) -> bytes:
    """One-shot Ethernet+IPv4 frame builder (ttl 64, tos 0, DF set).

    Byte-identical to the reference codec's Ethernet frame around
    ``ip_to_bytes`` of an IPv4 packet with the defaults the IP layer uses,
    including the Ethernet MTU check.
    """
    total_len = IP_HEADER_LEN + len(payload)
    if total_len > MAX_PAYLOAD:
        raise PacketError(
            f"payload of {total_len} bytes exceeds Ethernet MTU {MAX_PAYLOAD}"
        )
    s = int.from_bytes(src_ip, "big")
    d = int.from_bytes(dst_ip, "big")
    header_sum = (
        0x4500
        + total_len
        + ident
        + 0x4000  # flags: DF
        + (64 << 8)  # ttl
        + protocol
        + (s >> 16)
        + (s & 0xFFFF)
        + (d >> 16)
        + (d & 0xFFFF)
    )
    header = _ETH_IP_HDR.pack(
        dst_mac,
        src_mac,
        ETHERTYPE_IPV4,
        0x4500,
        total_len,
        ident,
        0x4000,
        64,
        protocol,
        fold_checksum(header_sum),
        src_ip,
        dst_ip,
    )
    return header + payload if payload else header


# -- parsers ----------------------------------------------------------------


def parse_ipv4_frame(frame_bytes: bytes) -> Tuple[IpAddress, IpAddress, int, bytes]:
    """``(src, dst, protocol, payload)`` of the reference's
    ``ip_from_bytes(frame_bytes[14:], verify=True)``.

    Operates on the whole frame (no intermediate slice of the IP packet)
    and accepts/rejects exactly the same inputs as that parser — every
    reject raises the same :class:`PacketError`/:class:`ChecksumError`.
    No reader needs ttl, tos, ident or the DF bit, so they stay unread.
    """
    n = len(frame_bytes) - ETH_HEADER_LEN
    if n < IP_HEADER_LEN:
        raise PacketError(f"IPv4 packet of {n} bytes is too short")
    version_ihl = frame_bytes[14]
    if version_ihl >> 4 != 4:
        raise PacketError(f"not an IPv4 packet (version nibble {version_ihl >> 4})")
    if (version_ihl & 0x0F) * 4 != IP_HEADER_LEN:
        raise PacketError(f"IPv4 options unsupported (IHL {(version_ihl & 0x0F) * 4} bytes)")
    total_length = (frame_bytes[16] << 8) | frame_bytes[17]
    if total_length > n or total_length < IP_HEADER_LEN:
        raise PacketError(
            f"IPv4 total length {total_length} inconsistent with {n} bytes"
        )
    if fold_checksum(checksum_sum16(frame_bytes[14:34])) != 0:
        raise ChecksumError("IPv4 header checksum mismatch")
    if frame_bytes[20] & 0x3F or frame_bytes[21]:
        raise PacketError("IPv4 fragmentation is not modelled")
    return (
        intern_ip(frame_bytes[26:30]),
        intern_ip(frame_bytes[30:34]),
        frame_bytes[23],
        frame_bytes[34 : 14 + total_length],
    )


def parse_tcp_segment(data: bytes, flow_sum: int) -> TcpSegment:
    """Equals the reference's ``tcp_from_bytes(data, src_ip, dst_ip,
    verify=True)`` for the endpoints *flow_sum* (:func:`tcp_flow_sum`) was
    taken over."""
    if len(data) < 20:
        raise PacketError(f"TCP segment of {len(data)} bytes is too short")
    src_port, dst_port, seq, ack, data_offset_flags, window, _, _ = TCP_HEADER.unpack_from(data)
    if (data_offset_flags >> 12) * 4 != 20:
        raise PacketError(
            f"TCP options unsupported (header {(data_offset_flags >> 12) * 4} bytes)"
        )
    if fold_checksum(flow_sum + len(data) + checksum_sum16(data)) != 0:
        raise ChecksumError("TCP checksum mismatch")
    seg = TcpSegment.__new__(TcpSegment)
    seg.src_port = src_port
    seg.dst_port = dst_port
    seg.seq = seq
    seg.ack = ack
    seg.flags = data_offset_flags & 0x3F
    seg.window = window
    seg.payload = data[20:]
    return seg


def parse_udp_datagram(
    data: bytes, src_ip: IpAddress, dst_ip: IpAddress
) -> Tuple[int, int, bytes]:
    """``(src_port, dst_port, payload)`` of the reference's
    ``udp_from_bytes(data, src_ip, dst_ip, verify=True)``."""
    if len(data) < 8:
        raise PacketError(f"UDP datagram of {len(data)} bytes is too short")
    length = (data[4] << 8) | data[5]
    if length < 8 or length > len(data):
        raise PacketError(
            f"UDP length field {length} inconsistent with {len(data)} bytes"
        )
    checksum = (data[6] << 8) | data[7]
    if checksum != 0:
        total = pseudo_header_sum(src_ip.packed, dst_ip.packed, PROTO_UDP, length)
        if fold_checksum(total + checksum_sum16(data[:length])) != 0:
            raise ChecksumError("UDP checksum mismatch")
    return (data[0] << 8) | data[1], (data[2] << 8) | data[3], data[8:length]
