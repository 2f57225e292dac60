"""Tests for control-plane message encoding."""

import pytest

from repro.core.control import FLAG_RELIABLE, WIRE_SIZE, ControlMessage, ControlType
from repro.errors import ControlPlaneError
from repro.net import ETHERTYPE_VW_CONTROL


class TestRoundTrips:
    @pytest.mark.parametrize("msg_type", list(ControlType))
    def test_every_type_roundtrips(self, msg_type):
        msg = ControlMessage(msg_type, a=7, b=12345)
        parsed = ControlMessage.parse(msg.to_payload())
        assert parsed == msg

    def test_negative_counter_value(self):
        """Counters can be negative (Fig 5 checks CanTx < 0)."""
        msg = ControlMessage(ControlType.COUNTER_UPDATE, a=3, b=-42)
        assert ControlMessage.parse(msg.to_payload()).b == -42

    def test_large_counter_value(self):
        msg = ControlMessage(ControlType.COUNTER_UPDATE, a=0, b=10**15)
        assert ControlMessage.parse(msg.to_payload()).b == 10**15

    def test_wrap_produces_control_ethertype(self):
        dst, src = bytes.fromhex("020000000002"), bytes.fromhex("020000000001")
        frame = ControlMessage(ControlType.START, 1).to_frame(dst, src)
        assert frame[:12] == dst + src
        assert frame[12:14] == ETHERTYPE_VW_CONTROL.to_bytes(2, "big")
        reparsed = ControlMessage.parse(frame[14:])
        assert reparsed.msg_type is ControlType.START


class TestReliabilityFields:
    def test_seq_and_flags_roundtrip(self):
        msg = ControlMessage(
            ControlType.COUNTER_UPDATE, a=3, b=-7, seq=0xDEADBEEF, flags=FLAG_RELIABLE
        )
        parsed = ControlMessage.parse(msg.to_payload())
        assert parsed == msg
        assert parsed.reliable

    def test_default_message_is_unreliable(self):
        """Hand-crafted frames (flags=0) bypass the ARQ protocol entirely."""
        msg = ControlMessage(ControlType.COUNTER_UPDATE, a=1, b=2)
        assert not msg.reliable
        assert ControlMessage.parse(msg.to_payload()).flags == 0

    def test_ack_echoes_seq(self):
        ack = ControlMessage(ControlType.ACK, seq=42)
        assert ControlMessage.parse(ack.to_payload()).seq == 42

    def test_wire_size_is_fixed(self):
        for msg_type in ControlType:
            assert len(ControlMessage(msg_type, 9, 9, seq=9).to_payload()) == WIRE_SIZE


class TestRejection:
    def test_short_payload(self):
        with pytest.raises(ControlPlaneError):
            ControlMessage.parse(b"\x01\x00")

    def test_unknown_type(self):
        good = ControlMessage(ControlType.START, 0).to_payload()
        with pytest.raises(ControlPlaneError):
            ControlMessage.parse(b"\xee" + good[1:])

    def test_trailing_bytes_rejected(self):
        good = ControlMessage(ControlType.START, 0).to_payload()
        with pytest.raises(ControlPlaneError, match="trailing"):
            ControlMessage.parse(good + b"\x00")

    def test_unknown_flags_rejected(self):
        good = bytearray(ControlMessage(ControlType.START, 0).to_payload())
        good[1] = 0x80
        with pytest.raises(ControlPlaneError, match="flags"):
            ControlMessage.parse(bytes(good))

    def test_empty_payload_rejected(self):
        with pytest.raises(ControlPlaneError):
            ControlMessage.parse(b"")
