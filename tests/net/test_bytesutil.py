"""Tests for checksum and byte-manipulation helpers: ``repro.net.bytesutil``
and the reference codec's (tests/oracles/codec.py)."""

import pytest

from repro.errors import PacketError
from repro.net.bytesutil import patch_bytes, read_u16
from tests.oracles.codec import (
    hexdump,
    internet_checksum,
    pack_u16,
    pack_u32,
    read_u32,
    verify_checksum,
)


class TestChecksum:
    def test_rfc1071_worked_example(self):
        # The classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")

    def test_verify_with_embedded_checksum(self):
        payload = b"\x45\x00\x00\x1c\x00\x01\x00\x00\x40\x11"
        checksum = internet_checksum(payload + b"\x00\x00")
        packet = payload + pack_u16(checksum)
        assert verify_checksum(packet)

    def test_verify_detects_single_bit_flip(self):
        payload = bytes(range(20))
        checksum = internet_checksum(payload + b"\x00\x00")
        packet = bytearray(payload + pack_u16(checksum))
        packet[3] ^= 0x40
        assert not verify_checksum(bytes(packet))


class TestFieldIo:
    def test_u16_roundtrip(self):
        assert read_u16(pack_u16(0xBEEF), 0) == 0xBEEF

    def test_u32_roundtrip(self):
        assert read_u32(pack_u32(0xDEADBEEF), 0) == 0xDEADBEEF

    def test_pack_range_checks(self):
        with pytest.raises(PacketError):
            pack_u16(0x10000)
        with pytest.raises(PacketError):
            pack_u32(-1)

    def test_read_bounds_checked(self):
        with pytest.raises(PacketError):
            read_u16(b"\x00", 0)
        with pytest.raises(PacketError):
            read_u32(b"\x00" * 4, 1)
        with pytest.raises(PacketError):
            read_u16(b"\x00\x00", -1)


class TestPatchBytes:
    def test_patch_middle(self):
        assert patch_bytes(b"abcdef", 2, b"XY") == b"abXYef"

    def test_patch_does_not_resize(self):
        out = patch_bytes(bytes(10), 8, b"\xff\xff")
        assert len(out) == 10

    def test_patch_out_of_bounds(self):
        with pytest.raises(PacketError):
            patch_bytes(b"abc", 2, b"XY")


class TestHexdump:
    def test_shape(self):
        dump = hexdump(bytes(range(32)))
        lines = dump.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("00000000")
        assert lines[1].startswith("00000010")

    def test_ascii_column(self):
        dump = hexdump(b"AB\x00")
        assert "AB." in dump
