"""The object-per-layer arms of the stack, as they ran before the data path
kept only the byte-level codec.

Inside :func:`reference_layers` every frame is built and parsed through the
readable codec of :mod:`tests.oracles.codec` — :class:`EthernetFrame`, the
``ip_``/``tcp_``/``udp_`` serialisers of :class:`Ipv4Packet`,
:class:`TcpSegment` and :class:`UdpDatagram`, :class:`RllFrame` — and
:class:`RetherMessage`, one object per layer per frame:

* the IP, UDP and TCP layers differed from production only in which codec
  call they made, so the codec names those modules import are patched with
  the class-based expressions (the IP and UDP arms build the
  :class:`Ipv4Packet` or :class:`UdpDatagram` and hand the layer its
  fields, the shape the production codec passes);
* the RLL kept parsed :class:`EthernetFrame` objects in its windows and
  backlogs, so its five per-frame methods are replaced whole;
* Rether parsed every token, ack and join into a :class:`RetherMessage`
  and recomputed its ring view from the eviction set on every token, so
  its six per-frame methods are replaced whole;
* the engine's control plane parsed each frame into an
  :class:`EthernetFrame` and read its payload field by field
  (:func:`parse_control_payload`), so its receive, transmit and
  EtherType test are replaced.

A testbed built inside the block must also finish its run inside it: RLL
windows hold the other representation outside.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core import engine as engine_module
from repro.core.control import _KNOWN_FLAGS, WIRE_SIZE, ControlMessage, ControlType
from repro.core.engine import VirtualWireEngine
from repro.errors import ControlPlaneError, PacketError
from repro.net.addresses import MacAddress
from repro.net.bytesutil import read_u16
from repro.net.frame import ETHERTYPE_IPV4, ETHERTYPE_RETHER, ETHERTYPE_VW_CONTROL
from repro.rll.frames import KIND_ACK, KIND_DATA, seq_add, seq_diff
from repro.rether import layer as rether_layer
from repro.rether.layer import RetherLayer
from repro.rether.messages import HEADER_LEN, TYPE_JOIN, TYPE_TOKEN, TYPE_TOKEN_ACK
from repro.rll.layer import DEFAULT_WINDOW, RllLayer
from repro.stack import ipstack, udp_stack
from repro.tcp import layer as tcp_layer
from tests.oracles.codec import (
    EthernetFrame,
    Ipv4Packet,
    RllFrame,
    UdpDatagram,
    ip_from_bytes,
    ip_to_bytes,
    pack_u16,
    pack_u32,
    read_u32,
    tcp_from_bytes,
    tcp_to_bytes,
    udp_from_bytes,
    udp_to_bytes,
)

# -- IP, UDP, TCP: the codec calls ------------------------------------------


def _encode_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, protocol, ident, payload):
    packet = Ipv4Packet(
        src=src_ip, dst=dst_ip, protocol=protocol, payload=payload, ident=ident
    )
    frame = EthernetFrame(
        dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4, payload=ip_to_bytes(packet)
    )
    return frame.to_bytes()


def _parse_ipv4_frame(frame_bytes):
    packet = ip_from_bytes(frame_bytes[14:], verify=True)
    return packet.src, packet.dst, packet.protocol, packet.payload


def _encode_udp_datagram(src_port, dst_port, payload, src_ip, dst_ip):
    return udp_to_bytes(UdpDatagram(src_port, dst_port, payload), src_ip, dst_ip)


def _parse_udp_datagram(data, src_ip, dst_ip):
    datagram = udp_from_bytes(data, src_ip, dst_ip, verify=True)
    return datagram.src_port, datagram.dst_port, datagram.payload


def _tcp_flow_sum(local_ip, remote_ip):
    """The reference arms carry the two addresses themselves where the codec
    carries their word sum (either order: the pseudo header's sum commutes)."""
    return local_ip, remote_ip


def _encode_tcp_segment(seg, flow):
    return tcp_to_bytes(seg, *flow)


def _parse_tcp_segment(data, flow):
    return tcp_from_bytes(data, *flow, verify=True)


# -- RLL: windows and backlogs of EthernetFrame objects ---------------------


def _rll_on_send(self, frame_bytes):
    parsed = EthernetFrame.from_bytes(frame_bytes)
    if parsed.dst.packed[0] & 0x01:  # group bit: broadcast or multicast
        self.bypass_frames += 1
        self.pass_down(frame_bytes)
        return
    dst = parsed.dst
    frame = parsed
    peer = self._peer(dst)
    if len(peer.window) >= DEFAULT_WINDOW:
        peer.backlog.append(frame)
        if self._m_backlog is not None:
            self._m_backlog.set(len(peer.backlog))
        return
    self.sim.defer(self._cost_ns, self._send_data, "rll:tx", dst, peer, frame)


def _rll_emit_data(self, dst, frame, seq, ack):
    shim = RllFrame.data_for(frame, seq, ack)
    self.pass_down(shim.wrap(dst, frame.src).to_bytes())


def _rll_on_receive(self, frame_bytes):
    outer = EthernetFrame.from_bytes(frame_bytes)
    shim = RllFrame.maybe_parse(outer)
    if shim is None:
        # Not RLL traffic (e.g. a peer without RLL, or multicast bypass).
        self.bypass_frames += 1
        self.pass_up(frame_bytes)
        return
    peer = self._peer(outer.src)
    if shim.kind == KIND_ACK:
        self.acks_received += 1
        self._process_ack(outer.src, peer, shim.ack)
        return
    if shim.kind == KIND_DATA:
        self.sim.defer(self._cost_ns, self._process_data, "rll:rx", outer, shim, peer)


def _rll_process_data(self, outer, shim, peer):
    if self._peers.get(outer.src) is not peer:
        return
    # Piggybacked cumulative ack is valid on every DATA frame.
    self._process_ack(outer.src, peer, shim.ack)
    delta = seq_diff(shim.seq, peer.rcv_next)
    if delta == 0:
        peer.rcv_next = seq_add(peer.rcv_next, 1)
        self.data_received += 1
        self._send_ack(outer.src, peer)
        self.pass_up(shim.unwrap(outer).to_bytes())
    elif delta < 0:
        # Duplicate of something we already delivered: re-ack, discard.
        self.duplicates_discarded += 1
        self._send_ack(outer.src, peer)
    else:
        # Go-back-N: a gap means the earlier frame is in flight again;
        # discard and re-ack the last in-order point.
        self.out_of_order_discarded += 1
        self._send_ack(outer.src, peer)


def _rll_send_ack(self, dst, peer):
    self.acks_sent += 1
    src = self.host.mac if self.host is not None else dst
    shim = RllFrame.pure_ack(peer.rcv_next)
    self.pass_down(shim.wrap(dst, src).to_bytes())


# -- Rether: one RetherMessage per token, ack and join ----------------------


class RetherMessage:
    """A decoded Rether control message (see :mod:`repro.rether.messages`)."""

    __slots__ = ("msg_type", "generation", "seq", "cycle_start")

    def __init__(self, msg_type, generation, seq, cycle_start=0):
        if msg_type not in (TYPE_TOKEN, TYPE_TOKEN_ACK, TYPE_JOIN):
            raise PacketError(f"unknown Rether message type {msg_type:#06x}")
        self.msg_type = msg_type
        self.generation = generation % (1 << 16)
        self.seq = seq % (1 << 32)
        self.cycle_start = cycle_start

    @property
    def is_token(self):
        return self.msg_type == TYPE_TOKEN

    @property
    def is_ack(self):
        return self.msg_type == TYPE_TOKEN_ACK

    @property
    def is_join(self):
        return self.msg_type == TYPE_JOIN

    def to_payload(self):
        return (
            pack_u16(self.msg_type)
            + pack_u16(self.generation)
            + pack_u32(self.seq)
            + self.cycle_start.to_bytes(8, "big")
        )

    def wrap(self, dst, src):
        """Build the on-wire control frame."""
        return EthernetFrame(dst, src, ETHERTYPE_RETHER, self.to_payload())

    @classmethod
    def parse(cls, payload):
        if len(payload) < HEADER_LEN:
            raise PacketError(f"Rether header of {len(payload)} bytes is too short")
        return cls(
            msg_type=read_u16(payload, 0),
            generation=read_u16(payload, 2),
            seq=read_u32(payload, 4),
            cycle_start=int.from_bytes(payload[8:16], "big"),
        )

    def ack(self):
        """The token-ack answering this token."""
        return RetherMessage(TYPE_TOKEN_ACK, self.generation, self.seq, self.cycle_start)


def _rether_live(self):
    """The ring view, from the eviction set, as every token recomputed it."""
    return [mac for mac in self._members if mac not in self._dead]


def _rether_handle_control(self, frame_bytes):
    frame = EthernetFrame.from_bytes(frame_bytes)
    if frame.dst != self._mac and frame.dst != MacAddress.BROADCAST:
        return  # control for someone else (shared segment)
    try:
        message = RetherMessage.parse(frame.payload)
    except PacketError:
        self.malformed_discarded += 1
        return
    self._touch_regen_timer()
    if message.is_join:
        if frame.src != self._mac:
            self._handle_join(frame.src)
        return
    if frame.dst != self._mac:
        return
    if message.is_token:
        self._handle_token(frame.src, message)
    elif message.is_ack:
        self._handle_token_ack(frame.src, message)


def _rether_handle_token(self, sender, token):
    if token.generation < self.generation:
        self.stale_tokens_discarded += 1
        return
    is_stale_repeat = (
        token.generation == self.generation
        and (self._token_seq - token.seq) % (1 << 32) < (1 << 31)
        and self.tokens_received > 0
    )
    self.generation = token.generation
    self._send_ack(sender, token)
    if self.holding_token:
        return
    if is_stale_repeat:
        self.stale_tokens_discarded += 1
        return
    self.holding_token = True
    self.tokens_received += 1
    self._token_seq = token.seq
    self._cycle_start = token.cycle_start
    if min(_rether_live(self), key=lambda m: m.packed) == self._mac:
        self._cycle_start = self.sim.now
    self._service_token()


def _rether_send_ack(self, dst, token):
    self.acks_sent += 1
    self.pass_down(token.ack().wrap(dst, self._mac).to_bytes())


def _rether_handle_token_ack(self, sender, ack):
    if self._handoff_msg is None or sender != self._handoff_target:
        return
    if ack.seq != self._handoff_msg.seq:
        return
    self.acks_received += 1
    self._handoff_timer.stop()
    self._handoff_msg = None
    self._handoff_target = None
    self._handoff_attempts = 0
    self.holding_token = False


def _rether_pass_token(self):
    alive = _rether_live(self)
    successor = alive[(alive.index(self._mac) + 1) % len(alive)]
    if successor == self._mac:
        self.holding_token = True
        return
    self._token_seq = (self._token_seq + 1) % (1 << 32)
    self._handoff_msg = RetherMessage(
        TYPE_TOKEN, self.generation, self._token_seq, self._cycle_start
    )
    self._handoff_target = successor
    self._handoff_attempts = 0
    self._transmit_token()


def _rether_transmit_token(self):
    if self._handoff_msg is None:
        return
    self._handoff_attempts += 1
    if self._handoff_attempts > 1:
        self.token_retransmissions += 1
    self.pass_down(self._handoff_msg.wrap(self._handoff_target, self._mac).to_bytes())
    self._handoff_timer.start(rether_layer.DEFAULT_ACK_TIMEOUT_NS)


# -- control plane: an EthernetFrame per control frame ----------------------


def parse_control_payload(payload):
    """``ControlMessage.parse`` as it read the payload field by field."""
    if len(payload) < WIRE_SIZE:
        raise ControlPlaneError(f"control payload of {len(payload)} bytes is too short")
    if len(payload) > WIRE_SIZE:
        raise ControlPlaneError(
            f"control payload of {len(payload)} bytes has trailing garbage "
            f"(expected exactly {WIRE_SIZE})"
        )
    try:
        msg_type = ControlType(payload[0])
    except ValueError:
        raise ControlPlaneError(f"unknown control type {payload[0]}") from None
    flags = payload[1]
    if flags & ~_KNOWN_FLAGS:
        raise ControlPlaneError(f"unknown control flags {flags:#04x}")
    return ControlMessage(
        msg_type=msg_type,
        a=read_u16(payload, 6),
        b=int.from_bytes(payload[8:16], "big", signed=True),
        seq=read_u32(payload, 2),
        flags=flags,
    )


def wrap_control(message, dst, src):
    """The control frame carrying *message*, as ``ControlMessage.wrap`` built it."""
    payload = (
        bytes([message.msg_type.value, message.flags])
        + pack_u32(message.seq)
        + pack_u16(message.a)
        + message.b.to_bytes(8, "big", signed=True)
    )
    return EthernetFrame(dst, src, ETHERTYPE_VW_CONTROL, payload)


def _is_control(frame_bytes):
    return len(frame_bytes) >= 14 and read_u16(frame_bytes, 12) == ETHERTYPE_VW_CONTROL


def _engine_transmit_control(self, dst_mac, message):
    self.stats.control_frames_sent += 1
    self.pass_down(wrap_control(message, dst_mac, self.host.mac).to_bytes())


def _engine_handle_control(self, frame_bytes):
    self.stats.control_frames_received += 1
    frame = EthernetFrame.from_bytes(frame_bytes)
    try:
        message = parse_control_payload(frame.payload)
    except ControlPlaneError:
        self.control_malformed_discarded += 1
        return
    for deliverable in self.channel.on_frame(frame.src, message):
        try:
            self._CONTROL_HANDLERS[deliverable.msg_type](self, frame.src, deliverable)
        except ControlPlaneError:
            self.control_rejected += 1


#: (owner, the name it holds, the reference arm).
_PATCHES = (
    (ipstack, "encode_ipv4_frame", _encode_ipv4_frame),
    (ipstack, "parse_ipv4_frame", _parse_ipv4_frame),
    (udp_stack, "encode_udp_datagram", _encode_udp_datagram),
    (udp_stack, "parse_udp_datagram", _parse_udp_datagram),
    (tcp_layer, "tcp_flow_sum", _tcp_flow_sum),
    (tcp_layer, "encode_tcp_segment", _encode_tcp_segment),
    (tcp_layer, "parse_tcp_segment", _parse_tcp_segment),
    (RllLayer, "on_send", _rll_on_send),
    (RllLayer, "_emit_data", _rll_emit_data),
    (RllLayer, "on_receive", _rll_on_receive),
    (RllLayer, "_process_data", _rll_process_data),
    (RllLayer, "_send_ack", _rll_send_ack),
    (RetherLayer, "_handle_control", _rether_handle_control),
    (RetherLayer, "_handle_token", _rether_handle_token),
    (RetherLayer, "_send_ack", _rether_send_ack),
    (RetherLayer, "_handle_token_ack", _rether_handle_token_ack),
    (RetherLayer, "_pass_token", _rether_pass_token),
    (RetherLayer, "_transmit_token", _rether_transmit_token),
    (engine_module, "_is_control", _is_control),
    (VirtualWireEngine, "_transmit_control", _engine_transmit_control),
    (VirtualWireEngine, "_handle_control", _engine_handle_control),
)


@contextmanager
def reference_layers():
    """Run the block on the object-per-layer stack; restores on exit."""
    with ExitStack() as stack:
        for owner, name, arm in _PATCHES:
            stack.enter_context(mock.patch.object(owner, name, arm))
        yield
