"""The object-per-layer frame codec, kept as the reference the data path and
the trace view are held to.

Before the data path kept only the byte-level codec
(:mod:`repro.net.fastpath`, the RLL splice helpers in
:mod:`repro.rll.frames`) and the trace tier kept only the byte view
(:class:`repro.net.packet.FrameView`), every frame was built and parsed
through one readable object per layer.  Those readable forms live here:

* :class:`EthernetFrame` and :class:`RllFrame`;
* the wire form of the stack's value classes, as free functions —
  ``ip_to_bytes``/``ip_from_bytes``, ``tcp_to_bytes``/``tcp_from_bytes``,
  ``udp_to_bytes``/``udp_from_bytes`` and the byte-form ``pseudo_header``;
* the whole-frame builders :func:`build_udp_frame` and :func:`build_tcp_frame`,
  which is how a test writes a frame by hand;
* :class:`ReferenceFrameView` and :func:`reference_frame_digest`, the trace
  view and the journey digest as they parsed through these classes;
* the byte helpers they build with: the per-word RFC 1071
  :func:`internet_checksum` (the reference for ``repro.net.bytesutil``'s
  one-pass ``checksum_sum16``), :func:`verify_checksum`, the range-checked
  :func:`pack_u16`/:func:`pack_u32`, :func:`read_u32` and :func:`hexdump`.

The differential properties (tests/props/test_props_codec.py,
test_props_frameview.py, test_props_control_codec.py) hold the production
code to these over arbitrary, truncated and corrupted bytes.  Nothing here
is imported by ``src/``.
"""

import hashlib
from typing import Optional, Union

from repro.errors import ChecksumError, PacketError
from repro.net.addresses import IpAddress, MacAddress
from repro.net.bytesutil import read_u16
from repro.net.frame import (
    ETHERTYPE_IPV4,
    ETHERTYPE_RETHER,
    ETHERTYPE_RLL,
    HEADER_LEN,
    MAX_PAYLOAD,
)
from repro.net.ip import HEADER_LEN as IP_HEADER_LEN
from repro.net.ip import PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.net.tcp_segment import (
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
    flags_to_str,
)
from repro.net.tcp_segment import HEADER_LEN as TCP_HEADER_LEN
from repro.net.udp import HEADER_LEN as UDP_HEADER_LEN
from repro.net.udp import UdpDatagram
from repro.rll.frames import KIND_ACK, KIND_DATA, SEQ_MOD, SHIM_LEN

# -- byte helpers --------------------------------------------------------------


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement sum over *data* (odd length is zero-padded).

    The per-word form; the data path gets the identical value (pinned by
    tests/props/test_props_codec.py) in one C-level pass from
    ``fold_checksum(checksum_sum16(data))``.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if *data* (checksum field included) sums to the magic 0."""
    return internet_checksum(data) == 0


def pack_u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise PacketError(f"u16 out of range: {value}")
    return value.to_bytes(2, "big")


def pack_u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise PacketError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def read_u32(data: bytes, offset: int) -> int:
    if offset < 0 or offset + 4 > len(data):
        raise PacketError(
            f"read of 4 bytes at offset {offset} exceeds packet length {len(data)}"
        )
    return int.from_bytes(data[offset : offset + 4], "big")


def hexdump(data: bytes, width: int = 16) -> str:
    """Classic offset/hex/ascii dump, for reading a frame in a failing test."""
    lines = []
    for start in range(0, len(data), width):
        chunk = data[start : start + width]
        hex_part = " ".join(f"{b:02x}" for b in chunk)
        ascii_part = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{start:08x}  {hex_part:<{width * 3}} {ascii_part}")
    return "\n".join(lines)


# -- Ethernet ----------------------------------------------------------------


class EthernetFrame:
    """An immutable Ethernet II frame."""

    __slots__ = ("dst", "src", "ethertype", "payload")

    def __init__(
        self,
        dst: Union[str, bytes, MacAddress],
        src: Union[str, bytes, MacAddress],
        ethertype: int,
        payload: bytes,
    ) -> None:
        self.dst = MacAddress(dst)
        self.src = MacAddress(src)
        if not 0 <= ethertype <= 0xFFFF:
            raise PacketError(f"ethertype out of range: {ethertype:#x}")
        if len(payload) > MAX_PAYLOAD:
            raise PacketError(
                f"payload of {len(payload)} bytes exceeds Ethernet MTU {MAX_PAYLOAD}"
            )
        self.ethertype = ethertype
        self.payload = bytes(payload)

    def to_bytes(self) -> bytes:
        """Serialise to the wire representation."""
        return (
            self.dst.packed + self.src.packed + pack_u16(self.ethertype) + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        """Parse wire bytes back into a frame."""
        if len(data) < HEADER_LEN:
            raise PacketError(f"frame of {len(data)} bytes is shorter than header")
        return cls(
            dst=data[0:6],
            src=data[6:12],
            ethertype=read_u16(data, 12),
            payload=data[HEADER_LEN:],
        )

    def __len__(self) -> int:
        return HEADER_LEN + len(self.payload)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EthernetFrame)
            and self.dst == other.dst
            and self.src == other.src
            and self.ethertype == other.ethertype
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.dst, self.src, self.ethertype, self.payload))

    def __repr__(self) -> str:
        return (
            f"EthernetFrame({self.src} -> {self.dst}, "
            f"type={self.ethertype:#06x}, {len(self.payload)}B payload)"
        )


# -- IPv4 ----------------------------------------------------------------------


def pseudo_header(src: IpAddress, dst: IpAddress, protocol: int, length: int) -> bytes:
    """RFC 793/768 pseudo header for the TCP/UDP checksum."""
    return src.packed + dst.packed + bytes([0, protocol]) + pack_u16(length)


def ip_header_bytes(packet: Ipv4Packet, checksum: int) -> bytes:
    flags_frag = 0x4000 if packet.dont_fragment else 0x0000
    return (
        bytes([0x45, packet.tos])
        + pack_u16(IP_HEADER_LEN + len(packet.payload))
        + pack_u16(packet.ident)
        + pack_u16(flags_frag)
        + bytes([packet.ttl, packet.protocol])
        + pack_u16(checksum)
        + packet.src.packed
        + packet.dst.packed
    )


def ip_to_bytes(packet: Ipv4Packet) -> bytes:
    """Serialise, computing the header checksum."""
    checksum = internet_checksum(ip_header_bytes(packet, 0))
    return ip_header_bytes(packet, checksum) + packet.payload


def ip_from_bytes(data: bytes, verify: bool = True) -> Ipv4Packet:
    """Parse wire bytes; *verify* controls header-checksum validation."""
    if len(data) < IP_HEADER_LEN:
        raise PacketError(f"IPv4 packet of {len(data)} bytes is too short")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        raise PacketError(f"not an IPv4 packet (version nibble {version_ihl >> 4})")
    ihl = (version_ihl & 0x0F) * 4
    if ihl != IP_HEADER_LEN:
        raise PacketError(f"IPv4 options unsupported (IHL {ihl} bytes)")
    total_length = read_u16(data, 2)
    if total_length > len(data) or total_length < IP_HEADER_LEN:
        raise PacketError(
            f"IPv4 total length {total_length} inconsistent with {len(data)} bytes"
        )
    if verify and internet_checksum(data[:IP_HEADER_LEN]) != 0:
        raise ChecksumError("IPv4 header checksum mismatch")
    flags_frag = read_u16(data, 6)
    if flags_frag & 0x3FFF:
        raise PacketError("IPv4 fragmentation is not modelled")
    return Ipv4Packet(
        src=data[12:16],
        dst=data[16:20],
        protocol=data[9],
        payload=data[IP_HEADER_LEN:total_length],
        ttl=data[8],
        tos=data[1],
        ident=read_u16(data, 4),
        dont_fragment=bool(flags_frag & 0x4000),
    )


# -- TCP -----------------------------------------------------------------------


def tcp_header(seg: TcpSegment, checksum: int) -> bytes:
    data_offset_flags = (5 << 12) | seg.flags  # offset=5 words, no options
    return (
        pack_u16(seg.src_port)
        + pack_u16(seg.dst_port)
        + pack_u32(seg.seq)
        + pack_u32(seg.ack)
        + pack_u16(data_offset_flags)
        + pack_u16(seg.window)
        + pack_u16(checksum)
        + pack_u16(0)  # urgent pointer, unused
    )


def tcp_to_bytes(seg: TcpSegment, src_ip: IpAddress, dst_ip: IpAddress) -> bytes:
    """Serialise with the RFC 793 pseudo-header checksum."""
    pseudo = pseudo_header(src_ip, dst_ip, PROTO_TCP, TCP_HEADER_LEN + len(seg.payload))
    checksum = internet_checksum(pseudo + tcp_header(seg, 0) + seg.payload)
    return tcp_header(seg, checksum) + seg.payload


def tcp_from_bytes(
    data: bytes,
    src_ip: Optional[IpAddress] = None,
    dst_ip: Optional[IpAddress] = None,
    verify: bool = True,
) -> TcpSegment:
    """Parse wire bytes; checksum verified when both IPs are supplied."""
    if len(data) < TCP_HEADER_LEN:
        raise PacketError(f"TCP segment of {len(data)} bytes is too short")
    data_offset_flags = read_u16(data, 12)
    header_len = (data_offset_flags >> 12) * 4
    if header_len != TCP_HEADER_LEN:
        raise PacketError(f"TCP options unsupported (header {header_len} bytes)")
    if verify and src_ip is not None and dst_ip is not None:
        pseudo = pseudo_header(src_ip, dst_ip, PROTO_TCP, len(data))
        if internet_checksum(pseudo + data) != 0:
            raise ChecksumError("TCP checksum mismatch")
    return TcpSegment(
        src_port=read_u16(data, 0),
        dst_port=read_u16(data, 2),
        seq=read_u32(data, 4),
        ack=read_u32(data, 8),
        flags=data_offset_flags & 0x3F,
        window=read_u16(data, 14),
        payload=data[TCP_HEADER_LEN:],
    )


# -- UDP -----------------------------------------------------------------------


def udp_to_bytes(dgram: UdpDatagram, src_ip: IpAddress, dst_ip: IpAddress) -> bytes:
    """Serialise with a checksum over pseudo header + header + payload."""
    length = UDP_HEADER_LEN + len(dgram.payload)
    header_no_cksum = (
        pack_u16(dgram.src_port) + pack_u16(dgram.dst_port) + pack_u16(length) + pack_u16(0)
    )
    pseudo = pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
    checksum = internet_checksum(pseudo + header_no_cksum + dgram.payload)
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
    return (
        pack_u16(dgram.src_port)
        + pack_u16(dgram.dst_port)
        + pack_u16(length)
        + pack_u16(checksum)
        + dgram.payload
    )


def udp_from_bytes(
    data: bytes,
    src_ip: Optional[IpAddress] = None,
    dst_ip: Optional[IpAddress] = None,
    verify: bool = True,
) -> UdpDatagram:
    """Parse wire bytes; checksum verified when both IPs are supplied."""
    if len(data) < UDP_HEADER_LEN:
        raise PacketError(f"UDP datagram of {len(data)} bytes is too short")
    length = read_u16(data, 4)
    if length < UDP_HEADER_LEN or length > len(data):
        raise PacketError(
            f"UDP length field {length} inconsistent with {len(data)} bytes"
        )
    checksum = read_u16(data, 6)
    if verify and checksum != 0 and src_ip is not None and dst_ip is not None:
        pseudo = pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
        if internet_checksum(pseudo + data[:length]) != 0:
            raise ChecksumError("UDP checksum mismatch")
    return UdpDatagram(
        src_port=read_u16(data, 0),
        dst_port=read_u16(data, 2),
        payload=data[UDP_HEADER_LEN:length],
    )


# -- whole frames ----------------------------------------------------------------


def build_udp_frame(
    src_mac: Union[str, MacAddress],
    dst_mac: Union[str, MacAddress],
    src_ip: Union[str, IpAddress],
    dst_ip: Union[str, IpAddress],
    src_port: int,
    dst_port: int,
    payload: bytes,
    ttl: int = 64,
    ident: int = 0,
) -> EthernetFrame:
    """Assemble a complete Ethernet/IPv4/UDP frame."""
    src_ip = IpAddress(src_ip)
    dst_ip = IpAddress(dst_ip)
    datagram = UdpDatagram(src_port, dst_port, payload)
    packet = Ipv4Packet(
        src=src_ip,
        dst=dst_ip,
        protocol=PROTO_UDP,
        payload=udp_to_bytes(datagram, src_ip, dst_ip),
        ttl=ttl,
        ident=ident,
    )
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip_to_bytes(packet))


def build_tcp_frame(
    src_mac: Union[str, MacAddress],
    dst_mac: Union[str, MacAddress],
    src_ip: Union[str, IpAddress],
    dst_ip: Union[str, IpAddress],
    segment: TcpSegment,
    ttl: int = 64,
    ident: int = 0,
) -> EthernetFrame:
    """Assemble a complete Ethernet/IPv4/TCP frame around *segment*."""
    src_ip = IpAddress(src_ip)
    dst_ip = IpAddress(dst_ip)
    packet = Ipv4Packet(
        src=src_ip,
        dst=dst_ip,
        protocol=PROTO_TCP,
        payload=tcp_to_bytes(segment, src_ip, dst_ip),
        ttl=ttl,
        ident=ident,
    )
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip_to_bytes(packet))


# -- RLL -----------------------------------------------------------------------


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


# -- the trace view and the journey digest through the classes ------------------


class ReferenceFrameView:
    """A lazily parsed, corruption-tolerant view through the classes."""

    __slots__ = ("data", "_eth", "_ip", "_tcp", "_udp", "_parsed_ip", "_parsed_transport")

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self._eth: Optional[EthernetFrame] = None
        self._ip: Optional[Ipv4Packet] = None
        self._tcp: Optional[TcpSegment] = None
        self._udp: Optional[UdpDatagram] = None
        self._parsed_ip = False
        self._parsed_transport = False

    @property
    def eth(self) -> Optional[EthernetFrame]:
        """The Ethernet layer, or None if the bytes are too short."""
        if self._eth is None:
            try:
                self._eth = EthernetFrame.from_bytes(self.data)
            except PacketError:
                return None
        return self._eth

    @property
    def ip(self) -> Optional[Ipv4Packet]:
        """The IPv4 layer (checksum not enforced), or None."""
        if not self._parsed_ip:
            self._parsed_ip = True
            eth = self.eth
            if eth is not None and eth.ethertype == ETHERTYPE_IPV4:
                try:
                    self._ip = ip_from_bytes(eth.payload, verify=False)
                except PacketError:
                    self._ip = None
        return self._ip

    def _parse_transport(self) -> None:
        if self._parsed_transport:
            return
        self._parsed_transport = True
        ip = self.ip
        if ip is None:
            return
        try:
            if ip.protocol == PROTO_TCP:
                self._tcp = tcp_from_bytes(ip.payload, verify=False)
            elif ip.protocol == PROTO_UDP:
                self._udp = udp_from_bytes(ip.payload, verify=False)
        except PacketError:
            pass

    @property
    def tcp(self) -> Optional[TcpSegment]:
        self._parse_transport()
        return self._tcp

    @property
    def udp(self) -> Optional[UdpDatagram]:
        self._parse_transport()
        return self._udp

    @property
    def is_rether(self) -> bool:
        eth = self.eth
        return eth is not None and eth.ethertype == ETHERTYPE_RETHER

    def summary(self) -> str:
        """One-line description, tcpdump style, for traces and reports."""
        eth = self.eth
        if eth is None:
            return f"<runt frame, {len(self.data)}B>"
        tcp = self.tcp
        if tcp is not None and self.ip is not None:
            return (
                f"TCP {self.ip.src}:{tcp.src_port} > {self.ip.dst}:{tcp.dst_port} "
                f"[{flags_to_str(tcp.flags)}] seq={tcp.seq} ack={tcp.ack} "
                f"len={len(tcp.payload)}"
            )
        udp = self.udp
        if udp is not None and self.ip is not None:
            return (
                f"UDP {self.ip.src}:{udp.src_port} > {self.ip.dst}:{udp.dst_port} "
                f"len={len(udp.payload)}"
            )
        if self.ip is not None:
            return (
                f"IP {self.ip.src} > {self.ip.dst} proto={self.ip.protocol} "
                f"len={len(self.ip.payload)}"
            )
        if self.is_rether:
            return f"RETHER {eth.src} > {eth.dst} len={len(eth.payload)}"
        return f"ETH {eth.src} > {eth.dst} type={eth.ethertype:#06x} len={len(eth.payload)}"


def reference_frame_digest(data: bytes) -> str:
    """The journey digest, from the fields the classes parse."""
    view = ReferenceFrameView(data)
    tcp = view.tcp
    if tcp is not None and view.ip is not None and view.eth is not None:
        pure_ack = not tcp.payload and not (tcp.flags & (FLAG_SYN | FLAG_FIN | FLAG_RST))
        material = b"|".join(
            (
                b"tcp",
                bytes(view.eth.src.packed),
                bytes(view.eth.dst.packed),
                bytes(view.ip.src.packed),
                bytes(view.ip.dst.packed),
                tcp.src_port.to_bytes(2, "big"),
                tcp.dst_port.to_bytes(2, "big"),
                tcp.seq.to_bytes(4, "big"),
                (tcp.ack if pure_ack else 0).to_bytes(4, "big"),
                (tcp.flags & 0xFF).to_bytes(1, "big"),
                tcp.payload,
            )
        )
    else:
        material = b"raw|" + bytes(data)
    return hashlib.blake2b(material, digest_size=8).hexdigest()
