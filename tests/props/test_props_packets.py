"""Property tests: the reference header codec (tests/oracles/codec.py)
round-trips for arbitrary field values."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    IpAddress,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    UdpDatagram,
)
from tests.oracles.codec import (
    internet_checksum,
    EthernetFrame,
    ip_from_bytes,
    ip_to_bytes,
    tcp_from_bytes,
    tcp_to_bytes,
    udp_from_bytes,
    udp_to_bytes,
)

macs = st.binary(min_size=6, max_size=6).map(MacAddress)
ips = st.binary(min_size=4, max_size=4).map(IpAddress)
ports = st.integers(min_value=0, max_value=0xFFFF)
seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)
payloads = st.binary(max_size=512)


class TestEthernetRoundTrip:
    @given(dst=macs, src=macs, ethertype=ports, payload=st.binary(max_size=1500))
    def test_roundtrip(self, dst, src, ethertype, payload):
        frame = EthernetFrame(dst, src, ethertype, payload)
        assert EthernetFrame.from_bytes(frame.to_bytes()) == frame

    @given(dst=macs, src=macs, payload=payloads)
    def test_length_identity(self, dst, src, payload):
        frame = EthernetFrame(dst, src, 0x0800, payload)
        assert len(frame.to_bytes()) == 14 + len(payload)


class TestIpv4RoundTrip:
    @given(
        src=ips,
        dst=ips,
        protocol=st.integers(min_value=0, max_value=255),
        payload=payloads,
        ttl=st.integers(min_value=0, max_value=255),
        ident=ports,
    )
    def test_roundtrip(self, src, dst, protocol, payload, ttl, ident):
        packet = Ipv4Packet(src, dst, protocol, payload, ttl=ttl, ident=ident)
        parsed = ip_from_bytes(ip_to_bytes(packet))
        assert (parsed.src, parsed.dst) == (src, dst)
        assert parsed.protocol == protocol
        assert parsed.payload == payload
        assert (parsed.ttl, parsed.ident) == (ttl, ident)

    @given(src=ips, dst=ips, payload=payloads)
    def test_header_checksum_always_verifies(self, src, dst, payload):
        wire = ip_to_bytes(Ipv4Packet(src, dst, 6, payload))
        assert internet_checksum(wire[:20]) == 0


class TestUdpRoundTrip:
    @given(src_ip=ips, dst_ip=ips, sport=ports, dport=ports, payload=payloads)
    def test_roundtrip_with_checksum(self, src_ip, dst_ip, sport, dport, payload):
        wire = udp_to_bytes(UdpDatagram(sport, dport, payload), src_ip, dst_ip)
        parsed = udp_from_bytes(wire, src_ip, dst_ip, verify=True)
        assert (parsed.src_port, parsed.dst_port) == (sport, dport)
        assert parsed.payload == payload


class TestTcpRoundTrip:
    @given(
        src_ip=ips,
        dst_ip=ips,
        sport=ports,
        dport=ports,
        seq=seqs,
        ack=seqs,
        flags=st.integers(min_value=0, max_value=0x3F),
        window=ports,
        payload=payloads,
    )
    @settings(max_examples=200)
    def test_roundtrip_with_checksum(
        self, src_ip, dst_ip, sport, dport, seq, ack, flags, window, payload
    ):
        seg = TcpSegment(sport, dport, seq, ack, flags, window, payload)
        wire = tcp_to_bytes(seg, src_ip, dst_ip)
        parsed = tcp_from_bytes(wire, src_ip, dst_ip, verify=True)
        assert (parsed.seq, parsed.ack, parsed.flags) == (seq, ack, flags)
        assert (parsed.src_port, parsed.dst_port) == (sport, dport)
        assert parsed.window == window
        assert parsed.payload == payload

    @given(seq=seqs, flags=st.integers(min_value=0, max_value=0x3F), payload=payloads)
    def test_seq_space_formula(self, seq, flags, payload):
        seg = TcpSegment(1, 2, seq, 0, flags, 0, payload)
        phantom = (1 if flags & 0x02 else 0) + (1 if flags & 0x01 else 0)
        assert seg.seq_space == len(payload) + phantom


class TestChecksumProperties:
    @given(data=st.binary(min_size=2, max_size=256).filter(lambda d: len(d) % 2 == 0))
    def test_embedding_checksum_yields_zero_sum(self, data):
        """Holds for 16-bit-aligned data, which is how every real header

        embeds its checksum (odd-length payloads are padded at the end,
        after the checksum field, not before it).
        """
        checksum = internet_checksum(data + b"\x00\x00")
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0

    @given(data=st.binary(max_size=256))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF
