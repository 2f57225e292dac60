"""The object-per-layer arms of the stack, as they ran before the data path
kept only the byte-level codec.

Inside :func:`reference_layers` every frame is built and parsed through the
readable classes — :class:`EthernetFrame`, :class:`Ipv4Packet`,
:class:`TcpSegment`, :class:`UdpDatagram`, :class:`RllFrame` — one object
per layer per frame:

* the IP, UDP and TCP layers differed from production only in which codec
  call they made, so the codec names those modules import are patched with
  the class-based expressions;
* the RLL kept parsed :class:`EthernetFrame` objects in its windows and
  backlogs, so its five per-frame methods are replaced whole.

A testbed built inside the block must also finish its run inside it: RLL
windows hold the other representation outside.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ip import Ipv4Packet
from repro.net.tcp_segment import TcpSegment
from repro.net.udp import UdpDatagram
from repro.rll.frames import KIND_ACK, KIND_DATA, RllFrame, seq_add, seq_diff
from repro.rll.layer import DEFAULT_WINDOW, RllLayer
from repro.stack import ipstack, udp_stack
from repro.tcp import layer as tcp_layer

# -- IP, UDP, TCP: the codec calls ------------------------------------------


def _encode_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, protocol, ident, payload):
    packet = Ipv4Packet(
        src=src_ip, dst=dst_ip, protocol=protocol, payload=payload, ident=ident
    )
    frame = EthernetFrame(
        dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4, payload=packet.to_bytes()
    )
    return frame.to_bytes()


def _parse_ipv4_frame(frame_bytes):
    return Ipv4Packet.from_bytes(frame_bytes[14:], verify=True)


def _encode_udp_datagram(datagram, src_ip, dst_ip):
    return datagram.to_bytes(src_ip, dst_ip)


def _parse_udp_datagram(data, src_ip, dst_ip):
    return UdpDatagram.from_bytes(data, src_ip, dst_ip, verify=True)


def _tcp_flow_sum(local_ip, remote_ip):
    """The reference arms carry the two addresses themselves where the codec
    carries their word sum (either order: the pseudo header's sum commutes)."""
    return local_ip, remote_ip


def _encode_tcp_segment(seg, flow):
    return seg.to_bytes(*flow)


def _parse_tcp_segment(data, flow):
    return TcpSegment.from_bytes(data, *flow, verify=True)


# -- RLL: windows and backlogs of EthernetFrame objects ---------------------


def _rll_on_send(self, frame_bytes):
    parsed = EthernetFrame.from_bytes(frame_bytes)
    if parsed.dst.is_multicast:
        self.bypass_frames += 1
        self.pass_down(frame_bytes)
        return
    dst = parsed.dst
    frame = parsed
    peer = self._peer(dst)
    if peer.unacked >= DEFAULT_WINDOW:
        peer.backlog.append(frame)
        if self._m_backlog is not None:
            self._m_backlog.set(len(peer.backlog))
        return
    self._charge(self._send_data, "rll:tx", dst, peer, frame)


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
        self._charge(self._process_data, "rll:rx", outer, shim, peer)


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
)


@contextmanager
def reference_layers():
    """Run the block on the object-per-layer stack; restores on exit."""
    with ExitStack() as stack:
        for owner, name, arm in _PATCHES:
            stack.enter_context(mock.patch.object(owner, name, arm))
        yield
