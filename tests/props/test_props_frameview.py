"""Differential property tests: the trace tier's byte view ≡ the object codec.

:class:`repro.net.packet.FrameView` reads each header once with a struct
layout and renders from the raw bytes; :mod:`tests.oracles.codec` keeps the
view and the journey digest as they parsed through one object per layer
(:class:`ReferenceFrameView`, :func:`reference_frame_digest`).  Over
arbitrary bytes and over valid TCP, UDP, Rether, control and RLL frames —
truncated, corrupted in one byte, padded past the IP total length, or
grown over the Ethernet MTU — these properties pin that:

* the summary, the digest (both :func:`repro.analysis.frame_digest` and
  the view's own), ``is_rether``, the EtherType and every field of
  ``.tcp`` (or its ``None``) equal the reference's — the summary carries
  the IPv4 and UDP accept/reject decisions and the fields it prints;
* nothing raises.

Beside the properties, an exhaustive sweep walks every prefix of a few
frames and every value of each field a parse decision turns on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import frame_digest
from repro.core.control import FLAG_RELIABLE, ControlMessage, ControlType
from repro.net import FrameView, IpAddress, TcpSegment
from repro.net.frame import MAX_PAYLOAD
from repro.rether.messages import TYPE_JOIN, TYPE_TOKEN, TYPE_TOKEN_ACK, encode_frame
from repro.rll.frames import encap_ack_fast, encap_data_fast
from tests.oracles.codec import (
    ReferenceFrameView,
    build_tcp_frame,
    build_udp_frame,
    reference_frame_digest,
)

mac_bytes = st.binary(min_size=6, max_size=6)
ip_bytes = st.binary(min_size=4, max_size=4)
u8 = st.integers(min_value=0, max_value=0xFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
payloads = st.binary(max_size=96)


def u8_bytes(values):
    return st.sampled_from(values).map(lambda v: bytes((v,)))


def u16_bytes(values):
    return st.sampled_from(values).map(lambda v: (v & 0xFFFF).to_bytes(2, "big"))


def decisive_edits(frame: bytes):
    """(offset, bytes) rewrites of the fields a parse decision turns on,
    with values on either side of each decision: EtherType, IP version and
    IHL, total length, fragment bits, protocol, TCP data offset, UDP length."""
    ip_room = len(frame) - 14
    return st.one_of(
        st.tuples(st.just(12), u16_bytes([0x0800, 0x9900, 0x88B5, 0x88B6, 0x0806])),
        st.tuples(st.just(14), u8_bytes([0x45, 0x44, 0x46, 0x4F, 0x40, 0x55, 0x65, 0x05])),
        st.tuples(
            st.just(16),
            st.one_of(
                u16_bytes([0, 19, 20, 21, ip_room - 1, ip_room, ip_room + 1, 0xFFFF]),
                st.integers(min_value=20, max_value=60).map(lambda v: v.to_bytes(2, "big")),
            ),
        ),
        st.tuples(st.just(20), u16_bytes([0x0000, 0x4000, 0x2000, 0x8000, 0x0001, 0x1FFF])),
        st.tuples(st.just(23), u8_bytes([6, 17, 1, 0])),
        st.tuples(st.just(46), u8_bytes([0x50, 0x40, 0x60, 0xF0, 0x00, 0x51])),
        st.tuples(
            st.just(38),
            u16_bytes([0, 7, 8, 9, ip_room - 21, ip_room - 20, ip_room - 19, 0xFFFF]),
        ),
    )


@st.composite
def tcp_frames(draw):
    seg = TcpSegment(
        draw(u16), draw(u16), draw(u32), draw(u32),
        draw(st.integers(min_value=0, max_value=0x3F)), draw(u16), draw(payloads),
    )
    return build_tcp_frame(
        draw(mac_bytes), draw(mac_bytes), IpAddress(draw(ip_bytes)),
        IpAddress(draw(ip_bytes)), seg, ttl=draw(u8), ident=draw(u16),
    ).to_bytes()


@st.composite
def udp_frames(draw):
    return build_udp_frame(
        draw(mac_bytes), draw(mac_bytes), IpAddress(draw(ip_bytes)),
        IpAddress(draw(ip_bytes)), draw(u16), draw(u16), draw(payloads),
        ttl=draw(u8), ident=draw(u16),
    ).to_bytes()


@st.composite
def rether_frames(draw):
    return encode_frame(
        draw(mac_bytes), draw(mac_bytes),
        draw(st.sampled_from([TYPE_TOKEN, TYPE_TOKEN_ACK, TYPE_JOIN])),
        draw(u16), draw(u32), draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )


@st.composite
def control_frames(draw):
    message = ControlMessage(
        msg_type=draw(st.sampled_from(list(ControlType))), a=draw(u16),
        b=draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
        seq=draw(u32), flags=draw(st.sampled_from([0, FLAG_RELIABLE])),
    )
    return message.to_frame(draw(mac_bytes), draw(mac_bytes))


@st.composite
def rll_frames(draw):
    if draw(st.booleans()):
        return encap_ack_fast(draw(mac_bytes), draw(mac_bytes), draw(u16))
    inner = draw(st.one_of(tcp_frames(), udp_frames(), rether_frames()))
    return encap_data_fast(inner, draw(u16), draw(u16))


valid_frames = st.one_of(
    tcp_frames(), udp_frames(), rether_frames(), control_frames(), rll_frames()
)


@st.composite
def reshaped_frames(draw):
    """A valid frame as a fault, a stranger or a short capture leaves it."""
    frame = draw(valid_frames)
    how = draw(st.sampled_from(
        ["as-is", "truncated", "corrupted", "decisive", "padded", "over-mtu"]
    ))
    if how == "truncated":
        return frame[: draw(st.integers(min_value=0, max_value=len(frame)))]
    if how == "corrupted":
        offset = draw(st.integers(min_value=0, max_value=len(frame) - 1))
        return frame[:offset] + bytes((draw(u8),)) + frame[offset + 1 :]
    if how == "decisive":
        # Several rewrites at once reach a decision behind another one.
        for offset, patch in draw(st.lists(decisive_edits(frame), min_size=1, max_size=3)):
            if offset + len(patch) <= len(frame):
                frame = frame[:offset] + patch + frame[offset + len(patch) :]
        if draw(st.booleans()):
            frame += draw(st.binary(min_size=1, max_size=32))
        return frame
    if how == "padded":
        # Bytes past the IP total length: the IP payload must stop before them.
        return frame + draw(st.binary(min_size=1, max_size=32))
    if how == "over-mtu":
        grow = MAX_PAYLOAD + 14 - len(frame) + draw(st.integers(min_value=1, max_value=64))
        return frame + bytes(grow)
    return frame


def fields(value, names):
    return None if value is None else tuple(getattr(value, name) for name in names)


TCP_FIELDS = ("src_port", "dst_port", "seq", "ack", "flags", "window", "payload")


def assert_view_matches_reference(data: bytes) -> None:
    view, reference = FrameView(data), ReferenceFrameView(data)
    assert view.summary() == reference.summary()
    assert view.digest() == frame_digest(data) == reference_frame_digest(data)
    assert view.is_rether == reference.is_rether
    assert view.ethertype == (None if reference.eth is None else reference.eth.ethertype)
    assert fields(view.tcp, TCP_FIELDS) == fields(reference.tcp, TCP_FIELDS)
    assert len(view) == len(data)


class TestByteViewMatchesReference:
    @given(data=st.binary(max_size=MAX_PAYLOAD + 64))
    @settings(max_examples=300)
    def test_arbitrary_bytes(self, data):
        assert_view_matches_reference(data)

    @given(data=reshaped_frames())
    @settings(max_examples=600)
    def test_reshaped_valid_frames(self, data):
        assert_view_matches_reference(data)

    @given(frame=st.one_of(tcp_frames(), udp_frames()), pad=st.binary(min_size=1, max_size=32))
    @settings(max_examples=100)
    def test_padding_past_total_length_is_not_payload(self, frame, pad):
        """The IP total length, not the frame length, bounds the transport."""
        view, unpadded = FrameView(frame + pad), FrameView(frame)
        assert view.summary() == unpadded.summary()
        if view.tcp is not None:  # other frames digest their raw bytes
            assert view.digest() == unpadded.digest()
        assert_view_matches_reference(frame + pad)

    def test_over_mtu_frame_summarises_as_a_runt(self):
        frame = bytes(14 + MAX_PAYLOAD + 1)
        assert FrameView(frame).summary() == f"<runt frame, {len(frame)}B>"
        assert_view_matches_reference(frame)
        assert_view_matches_reference(frame[:-1])


def _sweep_frames():
    macs = (b"\x02" * 6, b"\x04" * 6)
    ips = (IpAddress("10.0.0.1"), IpAddress("10.0.0.2"))
    frames = []
    for payload in (b"", b"hello"):
        seg = TcpSegment(0x6000, 0x4000, 7, 9, 0x18, 512, payload)
        frames.append(build_tcp_frame(*macs, *ips, seg, ident=3).to_bytes())
        frames.append(build_udp_frame(*macs, *ips, 9, 7, payload, ident=3).to_bytes())
    return frames


SWEEP_FRAMES = _sweep_frames()


def rewrite(frame: bytes, offset: int, patch: bytes) -> bytes:
    return frame[:offset] + patch + frame[offset + len(patch) :]


@pytest.mark.parametrize("frame", SWEEP_FRAMES, ids=["tcp", "udp", "tcp+data", "udp+data"])
class TestEveryDecision:
    def test_every_prefix(self, frame):
        for cut in range(len(frame) + 1):
            assert_view_matches_reference(frame[:cut])

    def test_every_value_of_every_decisive_byte(self, frame):
        """EtherType, version/IHL, fragment bits, protocol, TCP data offset."""
        for offset in (12, 13, 14, 20, 21, 23, 46):
            for value in range(256):
                assert_view_matches_reference(rewrite(frame, offset, bytes((value,))))

    def test_every_length_field_value(self, frame):
        """IP total length and UDP length, with the frame ending where the
        IP length says, past it, or padded beyond it."""
        for offset in (16, 38):
            for value in range(len(frame) + 2):
                mutant = rewrite(frame, offset, value.to_bytes(2, "big"))
                for end in (14 + value, len(mutant), len(mutant) + 8):
                    assert_view_matches_reference((mutant + bytes(8))[:end])
