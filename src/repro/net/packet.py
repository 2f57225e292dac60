"""Whole-frame builders and a lazy parsed view.

The VirtualWire engine treats packets as raw bytes (the filter table matches
by offset), while the protocol stacks and the trace renderer want structured
headers.  :class:`FrameView` bridges the two: it wraps raw frame bytes and
parses each layer on demand, tolerating corrupt packets (a MODIFY fault is
supposed to produce those) by degrading to ``None`` instead of raising.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import PacketError
from .addresses import IpAddress, MacAddress
from .frame import ETHERTYPE_IPV4, ETHERTYPE_RETHER, EthernetFrame
from .ip import PROTO_TCP, PROTO_UDP, Ipv4Packet
from .tcp_segment import TcpSegment, flags_to_str
from .udp import UdpDatagram

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
        payload=datagram.to_bytes(src_ip, dst_ip),
        ttl=ttl,
        ident=ident,
    )
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, packet.to_bytes())


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
        payload=segment.to_bytes(src_ip, dst_ip),
        ttl=ttl,
        ident=ident,
    )
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, packet.to_bytes())


class FrameView:
    """A lazily parsed, corruption-tolerant view over raw frame bytes."""

    __slots__ = ("data", "_eth", "_ip", "_tcp", "_udp", "_parsed_ip", "_parsed_transport")

    def __init__(self, data: Union[bytes, EthernetFrame]) -> None:
        if isinstance(data, EthernetFrame):
            data = data.to_bytes()
        self.data = bytes(data)
        self._eth: Optional[EthernetFrame] = None
        self._ip: Optional[Ipv4Packet] = None
        self._tcp: Optional[TcpSegment] = None
        self._udp: Optional[UdpDatagram] = None
        self._parsed_ip = False
        self._parsed_transport = False

    # -- layer accessors --------------------------------------------------

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
                    self._ip = Ipv4Packet.from_bytes(eth.payload, verify=False)
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
                self._tcp = TcpSegment.from_bytes(ip.payload, verify=False)
            elif ip.protocol == PROTO_UDP:
                self._udp = UdpDatagram.from_bytes(ip.payload, verify=False)
        except PacketError:
            pass

    @property
    def tcp(self) -> Optional[TcpSegment]:
        """The TCP layer if this is a parseable TCP frame, else None."""
        self._parse_transport()
        return self._tcp

    @property
    def udp(self) -> Optional[UdpDatagram]:
        """The UDP layer if this is a parseable UDP frame, else None."""
        self._parse_transport()
        return self._udp

    @property
    def is_rether(self) -> bool:
        eth = self.eth
        return eth is not None and eth.ethertype == ETHERTYPE_RETHER

    def __len__(self) -> int:
        return len(self.data)

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

    def __repr__(self) -> str:
        return f"FrameView({self.summary()})"
