"""Differential property tests: Rether and control-plane frames on bytes ≡
the object codec they replaced.

The Rether layer and the engine's control plane build and read their
frames with one precompiled ``struct`` each; ``tests/oracles`` keeps the
object codec they used before (:class:`RetherMessage`, ``wrap_control``,
``parse_control_payload`` and the per-frame methods built on them).  These
properties pin the claim that nothing but the representation changed:

* encoders emit the object codec's exact bytes for every field value;
* the receive paths take the same decision on arbitrary frames — built
  from live addresses and types, then truncated, padded with trailing
  garbage or left alone — the same counters, state and replies on both
  arms.  The one difference is deliberate: a frame over the Ethernet MTU
  raised ``PacketError`` from the object parser and is now counted as
  malformed and dropped.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.control import FLAG_RELIABLE, WIRE_SIZE, ControlMessage, ControlType
from repro.core.engine import VirtualWireEngine
from repro.errors import ControlPlaneError, PacketError
from repro.net.addresses import MacAddress
from repro.net.frame import ETHERTYPE_RETHER, ETHERTYPE_VW_CONTROL, MAX_PAYLOAD
from repro.rether.layer import RetherLayer
from repro.rether.messages import TYPE_JOIN, TYPE_TOKEN, TYPE_TOKEN_ACK, encode_frame
from repro.sim import Simulator, ms
from tests.oracles.reference_layers import (
    RetherMessage,
    parse_control_payload,
    reference_layers,
    wrap_control,
)

mac_bytes = st.binary(min_size=6, max_size=6)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
rether_types = st.sampled_from([TYPE_TOKEN, TYPE_TOKEN_ACK, TYPE_JOIN])

N1, N2, N3 = (MacAddress(f"02:00:00:00:00:0{i}") for i in (1, 2, 3))
BROADCAST = b"\xff" * 6


def reshape(draw, frame: bytes) -> bytes:
    """*frame* as a fault or a stranger might deliver it."""
    how = draw(st.sampled_from(["as-is", "truncated", "trailing", "oversize"]))
    if how == "truncated":
        return frame[: draw(st.integers(min_value=14, max_value=len(frame) - 1))]
    if how == "trailing":
        return frame + draw(st.binary(min_size=1, max_size=64))
    if how == "oversize":
        return frame + bytes(MAX_PAYLOAD + 14 - len(frame) + draw(st.integers(1, 100)))
    return frame


# -- Rether -----------------------------------------------------------------


class TestRetherEncoder:
    @given(
        dst=mac_bytes, src=mac_bytes, msg_type=rether_types,
        generation=u16, seq=u32, cycle_start=u64,
    )
    @settings(max_examples=300)
    def test_bytes_equal_the_message_object(
        self, dst, src, msg_type, generation, seq, cycle_start
    ):
        message = RetherMessage(msg_type, generation, seq, cycle_start)
        reference = message.wrap(MacAddress(dst), MacAddress(src)).to_bytes()
        assert encode_frame(dst, src, msg_type, generation, seq, cycle_start) == reference


@st.composite
def rether_frames(draw):
    """A Rether frame toward node2 of a 3-ring, mostly from live members."""
    dst = draw(st.sampled_from([N2.packed, BROADCAST, N3.packed]) | mac_bytes)
    src = draw(st.sampled_from([N1.packed, N3.packed, N2.packed]) | mac_bytes)
    msg_type = draw(rether_types | u16)
    generation = draw(st.sampled_from([0, 1]) | u16)
    seq = draw(st.sampled_from([0, 1, 2]) | u32)
    frame = dst + src + ETHERTYPE_RETHER.to_bytes(2, "big")
    frame += msg_type.to_bytes(2, "big") + generation.to_bytes(2, "big")
    frame += seq.to_bytes(4, "big") + draw(u64).to_bytes(8, "big")
    return reshape(draw, frame)


_OBSERVED = (
    "malformed_discarded", "acks_sent", "acks_received", "tokens_received",
    "stale_tokens_discarded", "joins_accepted", "holding_token", "generation",
    "_token_seq", "_cycle_start",
)


def rether_outcome(frame: bytes, evicted: bool):
    """Node2 holding a handoff to node3 (or, *evicted*, having dropped node1
    from its ring) receives *frame*: what it counted and kept, what it sent
    and what it passed up."""
    sim = Simulator(seed=1)
    layer = RetherLayer(sim, ring=[N1, N2, N3])
    layer.host = SimpleNamespace(mac=N2, metrics=None, is_alive=True)
    layer.attached()
    sent, passed_up = [], []
    layer.pass_down, layer.pass_up = sent.append, passed_up.append
    layer.on_receive(encode_frame(N2.packed, N1.packed, TYPE_TOKEN, 0, 1, 0))
    sim.run_until(ms(1))  # the idle gap ends: the token goes on to node3
    if evicted:
        layer._dead.add(N1)
        layer._ring_changed()
    del sent[:]
    try:
        layer.on_receive(frame)
    except PacketError:
        return "raised"
    state = tuple(getattr(layer, name) for name in _OBSERVED)
    return state, layer.ring, sent, passed_up


class TestRetherReceive:
    @given(frame=rether_frames(), evicted=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_decision_as_the_message_object(self, frame, evicted):
        production = rether_outcome(frame, evicted)
        with reference_layers():
            reference = rether_outcome(frame, evicted)
        if len(frame) > 14 + MAX_PAYLOAD:
            assert reference == "raised"
            assert production[0][0] == 1 and production[2] == []
        else:
            assert production == reference


# -- control plane ------------------------------------------------------------


messages = st.builds(
    ControlMessage,
    msg_type=st.sampled_from(list(ControlType)),
    a=u16,
    b=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    seq=u32,
    flags=st.sampled_from([0, FLAG_RELIABLE]),
)


class TestControlEncoder:
    @given(message=messages, dst=mac_bytes, src=mac_bytes)
    @settings(max_examples=300)
    def test_bytes_equal_the_frame_object(self, message, dst, src):
        reference = wrap_control(message, MacAddress(dst), MacAddress(src)).to_bytes()
        assert message.to_frame(dst, src) == reference
        assert message.to_payload() == reference[14:]


def parse_outcome(parse, payload):
    try:
        return parse(payload)
    except ControlPlaneError:
        return "rejected"


class TestControlParser:
    @given(payload=st.binary(max_size=3 * WIRE_SIZE))
    @settings(max_examples=500)
    def test_arbitrary_payloads(self, payload):
        assert parse_outcome(ControlMessage.parse, payload) == parse_outcome(
            parse_control_payload, payload
        )

    @given(
        message=messages, cut=st.integers(min_value=0, max_value=WIRE_SIZE),
        tail=st.binary(max_size=32), type_byte=st.integers(0, 255),
        flag_byte=st.integers(0, 255),
    )
    @settings(max_examples=500)
    def test_mutated_wire_payloads(self, message, cut, tail, type_byte, flag_byte):
        """Truncated, trailing-garbage and type/flag-rewritten payloads."""
        wire = bytearray(message.to_payload())
        wire[0], wire[1] = type_byte, flag_byte
        for payload in (bytes(wire[:cut]) + tail, message.to_payload()[:cut] + tail):
            assert parse_outcome(ControlMessage.parse, payload) == parse_outcome(
                parse_control_payload, payload
            )


@st.composite
def control_frames(draw):
    src = draw(st.sampled_from([N1.packed, N3.packed]) | mac_bytes)
    ethertype = draw(st.sampled_from([ETHERTYPE_VW_CONTROL, ETHERTYPE_RETHER]) | u16)
    head = N2.packed + src + ethertype.to_bytes(2, "big")
    payload = draw(messages.map(ControlMessage.to_payload) | st.binary(max_size=WIRE_SIZE))
    frame = reshape(draw, head + payload) if len(payload) else head
    return frame[: draw(st.sampled_from([len(frame), 13, 12, 0]))]


def control_outcome(frame: bytes):
    """An engine receives *frame*: whether it is control, what it counted,
    and the (sender, message) it handed the reliable channel."""
    engine = VirtualWireEngine(Simulator(seed=1))
    fed = []
    engine.channel.on_frame = lambda src, message: fed.append((src, message)) or []
    if not engine_module._is_control(frame):
        return "data"
    try:
        engine._handle_control(frame)
    except PacketError:
        return "raised"
    return engine.stats.control_frames_received, engine.control_malformed_discarded, fed


class TestControlReceive:
    @given(frame=control_frames())
    @settings(max_examples=500, deadline=None)
    def test_same_decision_as_the_frame_object(self, frame):
        production = control_outcome(frame)
        with reference_layers():
            reference = control_outcome(frame)
        if len(frame) > 14 + MAX_PAYLOAD and production != "data":
            assert reference == "raised"
            assert production == (1, 1, [])
        else:
            assert production == reference


@pytest.mark.parametrize("frame", [b"", bytes(12), bytes(13), b"\x00" * 12 + b"\x88"])
def test_short_frames_are_not_control_on_either_arm(frame):
    assert control_outcome(frame) == "data"
    with reference_layers():
        assert control_outcome(frame) == "data"
