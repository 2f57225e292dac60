"""Tests for the lazily parsed FrameView."""

from repro.net import (
    ETHERTYPE_RETHER,
    FLAG_SYN,
    FrameView,
    TcpSegment,
)
from tests.oracles.codec import EthernetFrame, build_tcp_frame, build_udp_frame

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"


def tcp_view() -> FrameView:
    seg = TcpSegment(0x6000, 0x4000, 10, 0, FLAG_SYN, 100)
    return FrameView(
        build_tcp_frame(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", seg).to_bytes()
    )


class TestLayers:
    def test_tcp_parses(self):
        view = tcp_view()
        assert view.ethertype is not None
        assert view.tcp is not None and view.tcp.src_port == 0x6000

    def test_udp_parses(self):
        view = FrameView(
            build_udp_frame(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", 9, 7, b"x").to_bytes()
        )
        assert view.summary() == "UDP 10.0.0.1:9 > 10.0.0.2:7 len=1"
        assert view.tcp is None

    def test_rether_flag(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_RETHER, bytes(16))
        assert FrameView(frame.to_bytes()).is_rether

    def test_runt_degrades_to_none(self):
        view = FrameView(b"\x00\x01")
        assert view.ethertype is None
        assert view.tcp is None
        assert "runt" in view.summary()

    def test_corrupt_ip_degrades(self):
        wire = bytearray(tcp_view().data)
        wire[14] = 0x65  # IPv4 version nibble destroyed
        view = FrameView(bytes(wire))
        assert view.ethertype is not None
        assert view.tcp is None
        assert view.summary().startswith("ETH ")


class TestSummaries:
    def test_tcp_summary(self):
        text = tcp_view().summary()
        assert "TCP" in text and "SYN" in text and "24576" in text

    def test_udp_summary(self):
        view = FrameView(
            build_udp_frame(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", 9, 7, b"abc").to_bytes()
        )
        assert "UDP" in view.summary() and "len=3" in view.summary()

    def test_rether_summary(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_RETHER, bytes(16))
        assert "RETHER" in FrameView(frame.to_bytes()).summary()

    def test_unknown_ethertype_summary(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, 0x1234, b"")
        assert "0x1234" in FrameView(frame.to_bytes()).summary()
