"""Tests for the Ethernet/IPv4/UDP/TCP reference codec, its IPv4 and UDP
header classes and TCP's value class — including the exact wire offsets the paper's filter scripts rely
on (Fig 2): TCP ports at frame offsets 34/36, sequence number at 38, ack
at 42, flags byte at 47, and the Rether EtherType at offset 12.
"""

import pytest

from repro.errors import ChecksumError, PacketError
from repro.net import (
    ETHERTYPE_IPV4,
    ETHERTYPE_RETHER,
    FLAG_ACK,
    FLAG_SYN,
    IpAddress,
    TcpSegment,
    flags_to_str,
)
from repro.net.bytesutil import read_u16
from tests.oracles.codec import (
    read_u32,
    verify_checksum,
    EthernetFrame,
    Ipv4Packet,
    UdpDatagram,
    build_tcp_frame,
    build_udp_frame,
    ip_from_bytes,
    ip_to_bytes,
    tcp_from_bytes,
    tcp_to_bytes,
    udp_from_bytes,
    udp_to_bytes,
)

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"
SRC_IP = IpAddress("192.168.1.1")
DST_IP = IpAddress("192.168.1.2")


class TestEthernetFrame:
    def test_roundtrip(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_IPV4, b"hello")
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed == frame

    def test_wire_layout(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_RETHER, b"\xAA")
        wire = frame.to_bytes()
        assert wire[0:6] == frame.dst.packed
        assert wire[6:12] == frame.src.packed
        assert read_u16(wire, 12) == 0x9900  # paper Fig 6: (12 2 0x9900)
        assert wire[14:] == b"\xAA"

    def test_mtu_enforced(self):
        with pytest.raises(PacketError):
            EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_IPV4, bytes(1501))

    def test_runt_rejected(self):
        with pytest.raises(PacketError):
            EthernetFrame.from_bytes(bytes(10))

    def test_len(self):
        assert len(EthernetFrame(DST_MAC, SRC_MAC, 0x0800, bytes(100))) == 114


class TestIpv4:
    def test_roundtrip(self):
        packet = Ipv4Packet(SRC_IP, DST_IP, 17, b"payload", ttl=33, ident=7)
        parsed = ip_from_bytes(ip_to_bytes(packet))
        assert parsed.src == SRC_IP and parsed.dst == DST_IP
        assert parsed.protocol == 17
        assert parsed.payload == b"payload"
        assert parsed.ttl == 33 and parsed.ident == 7

    def test_header_checksum_valid(self):
        wire = ip_to_bytes(Ipv4Packet(SRC_IP, DST_IP, 6, b"x"))
        assert verify_checksum(wire[:20])

    def test_corrupt_header_detected(self):
        wire = bytearray(ip_to_bytes(Ipv4Packet(SRC_IP, DST_IP, 6, b"x")))
        wire[8] ^= 0x01  # flip a TTL bit
        with pytest.raises(ChecksumError):
            ip_from_bytes(bytes(wire))
        # But a fault-tolerant parse succeeds when verification is off.
        ip_from_bytes(bytes(wire), verify=False)

    def test_total_length_honoured(self):
        wire = ip_to_bytes(Ipv4Packet(SRC_IP, DST_IP, 6, b"abc")) + b"JUNKPAD"
        parsed = ip_from_bytes(wire)
        assert parsed.payload == b"abc"

    def test_rejects_non_v4(self):
        wire = bytearray(ip_to_bytes(Ipv4Packet(SRC_IP, DST_IP, 6, b"")))
        wire[0] = 0x65  # version 6
        with pytest.raises(PacketError):
            ip_from_bytes(bytes(wire))

    def test_rejects_short(self):
        with pytest.raises(PacketError):
            ip_from_bytes(bytes(10))

    def test_field_ranges(self):
        with pytest.raises(PacketError):
            Ipv4Packet(SRC_IP, DST_IP, 300, b"")
        with pytest.raises(PacketError):
            Ipv4Packet(SRC_IP, DST_IP, 6, b"", ttl=-1)


class TestUdp:
    def test_roundtrip_with_checksum(self):
        dgram = UdpDatagram(5000, 7, b"ping")
        wire = udp_to_bytes(dgram, SRC_IP, DST_IP)
        parsed = udp_from_bytes(wire, SRC_IP, DST_IP)
        assert (parsed.src_port, parsed.dst_port, parsed.payload) == (5000, 7, b"ping")

    def test_corruption_detected(self):
        wire = bytearray(udp_to_bytes(UdpDatagram(5000, 7, b"ping"), SRC_IP, DST_IP))
        wire[9] ^= 0x80  # flip a payload bit
        with pytest.raises(ChecksumError):
            udp_from_bytes(bytes(wire), SRC_IP, DST_IP)

    def test_wrong_pseudo_header_detected(self):
        """The checksum covers src/dst IPs, so redirected packets fail."""
        wire = udp_to_bytes(UdpDatagram(5000, 7, b"ping"), SRC_IP, DST_IP)
        with pytest.raises(ChecksumError):
            udp_from_bytes(wire, SRC_IP, IpAddress("192.168.1.99"))

    def test_length_field_inconsistency(self):
        wire = bytearray(udp_to_bytes(UdpDatagram(1, 2, b"abc"), SRC_IP, DST_IP))
        wire[5] = 0x02  # length shorter than the header
        with pytest.raises(PacketError):
            udp_from_bytes(bytes(wire))

    def test_port_range(self):
        with pytest.raises(PacketError):
            UdpDatagram(70000, 7, b"")


class TestTcpSegment:
    def test_roundtrip(self):
        seg = TcpSegment(0x6000, 0x4000, 1000, 2000, FLAG_ACK, 512, b"data")
        wire = tcp_to_bytes(seg, SRC_IP, DST_IP)
        parsed = tcp_from_bytes(wire, SRC_IP, DST_IP)
        assert parsed.seq == 1000 and parsed.ack == 2000
        assert parsed.flags == FLAG_ACK and parsed.window == 512
        assert parsed.payload == b"data"

    def test_checksum_detects_corruption(self):
        wire = bytearray(
            tcp_to_bytes(TcpSegment(1, 2, 3, 4, FLAG_ACK, 5, b"xy"), SRC_IP, DST_IP)
        )
        wire[21] ^= 0x01
        with pytest.raises(ChecksumError):
            tcp_from_bytes(bytes(wire), SRC_IP, DST_IP)

    def test_seq_space_counts_phantom_bytes(self):
        assert TcpSegment(1, 2, 0, 0, FLAG_SYN, 0).seq_space == 1
        assert TcpSegment(1, 2, 0, 0, FLAG_ACK, 0, b"abc").seq_space == 3

    def test_flags_to_str(self):
        assert flags_to_str(FLAG_SYN | FLAG_ACK) == "SYN|ACK"
        assert flags_to_str(0) == "."


class TestPaperOffsets:
    """The offsets from Fig 2 must hold on assembled frames."""

    def test_tcp_frame_offsets(self):
        seg = TcpSegment(
            0x6000, 0x4000, 0xAABBCCDD, 0x11223344, FLAG_ACK, 100, b"payload"
        )
        wire = build_tcp_frame(SRC_MAC, DST_MAC, SRC_IP, DST_IP, seg).to_bytes()
        assert read_u16(wire, 34) == 0x6000  # (34 2 0x6000): source port
        assert read_u16(wire, 36) == 0x4000  # (36 2 0x4000): destination port
        assert read_u32(wire, 38) == 0xAABBCCDD  # (38 4 ...): sequence number
        assert read_u32(wire, 42) == 0x11223344  # (42 4 ...): ack number
        assert wire[47] & 0x10 == 0x10  # (47 1 0x10 0x10): ACK flag

    def test_syn_flag_at_47(self):
        seg = TcpSegment(0x6000, 0x4000, 0, 0, FLAG_SYN, 100)
        wire = build_tcp_frame(SRC_MAC, DST_MAC, SRC_IP, DST_IP, seg).to_bytes()
        assert wire[47] & 0x02 == 0x02  # (47 1 0x02 0x02)
        assert wire[47] & 0x10 == 0

    def test_udp_frame_offsets(self):
        wire = build_udp_frame(
            SRC_MAC, DST_MAC, SRC_IP, DST_IP, 5000, 7, b"ping"
        ).to_bytes()
        assert read_u16(wire, 12) == ETHERTYPE_IPV4
        assert wire[23] == 17  # IP protocol byte (frame offset 14 + 9)
        assert read_u16(wire, 34) == 5000
        assert read_u16(wire, 36) == 7
