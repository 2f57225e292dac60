"""Tests for MAC and IPv4 address value types."""

import pytest

from repro.errors import AddressError
from repro.net.addresses import IpAddress, MacAddress


class TestMacAddress:
    def test_parse_and_render(self):
        mac = MacAddress("00:46:61:AF:fe:23")
        assert str(mac) == "00:46:61:af:fe:23"
        assert mac.packed == bytes([0x00, 0x46, 0x61, 0xAF, 0xFE, 0x23])

    def test_from_bytes(self):
        mac = MacAddress(b"\x02\x00\x00\x00\x00\x01")
        assert str(mac) == "02:00:00:00:00:01"

    def test_copy_constructor(self):
        mac = MacAddress("02:00:00:00:00:01")
        assert MacAddress(mac) == mac

    def test_equality_and_hash(self):
        a = MacAddress("02:00:00:00:00:01")
        b = MacAddress(b"\x02\x00\x00\x00\x00\x01")
        assert a == b
        assert hash(a) == hash(b)
        assert a != MacAddress("02:00:00:00:00:02")

    def test_broadcast(self):
        assert MacAddress.BROADCAST.is_broadcast
        assert MacAddress.BROADCAST.is_multicast
        assert not MacAddress("02:00:00:00:00:01").is_broadcast

    def test_multicast_bit(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast
        assert not MacAddress("00:00:5e:00:00:01").is_multicast

    def test_from_index_deterministic_and_unicast(self):
        a = MacAddress.from_index(7)
        assert a == MacAddress.from_index(7)
        assert not a.is_multicast
        assert a != MacAddress.from_index(8)

    @pytest.mark.parametrize(
        "bad", ["", "00:46:61:af:fe", "00:46:61:af:fe:2g", "0:1:2:3:4:5", 3.14]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            MacAddress(bad)

    def test_rejects_wrong_byte_length(self):
        with pytest.raises(AddressError):
            MacAddress(b"\x00\x01\x02")


class TestIpAddress:
    def test_parse_and_render(self):
        ip = IpAddress("192.168.1.1")
        assert str(ip) == "192.168.1.1"
        assert ip.packed == bytes([192, 168, 1, 1])

    def test_from_int_roundtrip(self):
        ip = IpAddress("10.0.0.1")
        assert IpAddress(0x0A000001) == ip

    def test_equality_and_hash(self):
        assert IpAddress("10.0.0.1") == IpAddress(b"\x0a\x00\x00\x01")
        assert hash(IpAddress("10.0.0.1")) == hash(IpAddress("10.0.0.1"))

    def test_from_index(self):
        assert str(IpAddress.from_index(5)) == "192.168.1.5"
        assert str(IpAddress.from_index(5, network="10.1.2.0")) == "10.1.2.5"

    def test_from_index_bounds(self):
        with pytest.raises(AddressError):
            IpAddress.from_index(0)
        with pytest.raises(AddressError):
            IpAddress.from_index(255)

    @pytest.mark.parametrize("bad", ["", "1.2.3", "256.1.1.1", "a.b.c.d", None])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IpAddress(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(AddressError):
            IpAddress(2**32)
