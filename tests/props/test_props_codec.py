"""Differential property tests: the data path's frame codec ≡ the classes.

Every function in :mod:`repro.net.fastpath` (and the RLL splice helpers in
:mod:`repro.rll.frames`) claims byte-identical wire output and identical
accept/reject decisions relative to the readable per-layer codec in
tests/oracles/codec.py (``EthernetFrame``, the ``ip_``/``tcp_``/``udp_``
``to_bytes``/``from_bytes`` functions, ``RllFrame`` — "the reference"
below).  These properties pin that claim
over arbitrary inputs:

* encoders emit the reference's exact bytes, including the RFC 768
  zero-checksum rule and the Ethernet MTU reject;
* parse → fault-mutate → reserialise round-trips: for any byte splice into
  a valid frame, fast and reference parsers agree on the outcome — the same
  exception class on reject, on accept the fast parsers' field tuples equal
  the reference objects' fields (and reserialise to the same bytes);
* checksum rewrites: a MODIFY-fault-style field mutation followed by a
  checksum rewrite through the fast helpers is accepted by both parsers;
* truncated frames: both parsers reject at the same exception;
* VAR-reach edges: a classifier VAR tuple whose read ends exactly at the
  frame boundary binds, one byte past does not, identically on the linear
  oracle and the production classifier.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, PacketError
from repro.net import (
    ETHERTYPE_IPV4,
    IpAddress,
    MacAddress,
    TcpSegment,
)
from repro.net.bytesutil import checksum_sum16, fold_checksum, patch_bytes
from repro.net.fastpath import (
    encode_ipv4_frame,
    encode_tcp_segment,
    encode_udp_datagram,
    parse_ipv4_frame,
    parse_tcp_segment,
    parse_udp_datagram,
    pseudo_header_sum,
    tcp_flow_sum,
)
from repro.net.frame import MAX_PAYLOAD
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.core.classify import Classifier
from repro.core.tables import FilterEntry, FilterTable, FilterTuple, VarRef
from repro.rll.frames import (
    decap_data_fast,
    encap_ack_fast,
    encap_data_fast,
)
from tests.oracles.classifiers import LinearClassifier
from tests.oracles.codec import (
    EthernetFrame,
    Ipv4Packet,
    RllFrame,
    UdpDatagram,
    internet_checksum,
    ip_from_bytes,
    ip_to_bytes,
    pseudo_header,
    tcp_from_bytes,
    tcp_to_bytes,
    udp_from_bytes,
    udp_to_bytes,
)

mac_bytes = st.binary(min_size=6, max_size=6)
ip_bytes = st.binary(min_size=4, max_size=4)
ports = st.integers(min_value=0, max_value=0xFFFF)
seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)
flags = st.integers(min_value=0, max_value=0x3F)
payloads = st.binary(max_size=256)
idents = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def tcp_wire(draw):
    """(src_ip, dst_ip, reference segment) for checksum-bearing wire tests."""
    src_ip, dst_ip = IpAddress(draw(ip_bytes)), IpAddress(draw(ip_bytes))
    seg = TcpSegment(
        draw(ports), draw(ports), draw(seqs), draw(seqs),
        draw(flags), draw(ports), draw(payloads),
    )
    return src_ip, dst_ip, seg


@st.composite
def udp_wire(draw):
    src_ip, dst_ip = IpAddress(draw(ip_bytes)), IpAddress(draw(ip_bytes))
    dgram = UdpDatagram(draw(ports), draw(ports), draw(payloads))
    return src_ip, dst_ip, dgram


@st.composite
def ipv4_frames(draw):
    """A full Ethernet+IPv4+transport frame built by the REFERENCE path."""
    dst_mac, src_mac = draw(mac_bytes), draw(mac_bytes)
    src_ip, dst_ip = IpAddress(draw(ip_bytes)), IpAddress(draw(ip_bytes))
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP]))
    if proto == PROTO_TCP:
        transport = tcp_to_bytes(
            TcpSegment(
                draw(ports), draw(ports), draw(seqs), draw(seqs),
                draw(flags), draw(ports), draw(payloads),
            ),
            src_ip, dst_ip,
        )
    else:
        transport = udp_to_bytes(
            UdpDatagram(draw(ports), draw(ports), draw(payloads)), src_ip, dst_ip
        )
    packet = Ipv4Packet(src_ip, dst_ip, proto, transport, ident=draw(idents))
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip_to_bytes(packet)).to_bytes()


def ip_fields(packet):
    """The reference packet's fields in ``parse_ipv4_frame``'s shape."""
    return packet.src, packet.dst, packet.protocol, packet.payload


def udp_fields(dgram):
    """The reference datagram's fields in ``parse_udp_datagram``'s shape."""
    return dgram.src_port, dgram.dst_port, dgram.payload


def reencode_ipv4(frame, fields):
    """*frame* rebuilt by the IP layer's encoder from the parsed fields and
    the frame's own ident (ttl 64, tos 0 and DF are the encoder's)."""
    src, dst, protocol, payload = fields
    ident = (frame[18] << 8) | frame[19]
    return encode_ipv4_frame(
        frame[:6], frame[6:12], src.packed, dst.packed, protocol, ident, payload
    )


def outcome(parse, *args):
    """(tag, value) capturing accept-vs-reject; ChecksumError before its base."""
    try:
        return ("ok", parse(*args))
    except ChecksumError:
        return ("checksum", None)
    except PacketError:
        return ("packet", None)


# -- encoders ---------------------------------------------------------------


class TestEncodersMatchReference:
    @given(wire=tcp_wire())
    @settings(max_examples=200)
    def test_tcp_bytes_identical(self, wire):
        src_ip, dst_ip, seg = wire
        assert encode_tcp_segment(seg, tcp_flow_sum(src_ip, dst_ip)) == tcp_to_bytes(
            seg, src_ip, dst_ip
        )

    @given(wire=udp_wire())
    @settings(max_examples=200)
    def test_udp_bytes_identical(self, wire):
        src_ip, dst_ip, dgram = wire
        assert encode_udp_datagram(*udp_fields(dgram), src_ip, dst_ip) == udp_to_bytes(
            dgram, src_ip, dst_ip
        )

    def test_udp_zero_checksum_transmits_all_ones(self):
        """The RFC 768 rule on both paths: this crafted datagram's checksum
        computes to zero, so 0xFFFF must go on the wire."""
        zero = IpAddress("0.0.0.0")
        dgram = UdpDatagram(0, 0, b"\xff\xda")
        wire = udp_to_bytes(dgram, zero, zero)
        assert wire[6:8] == b"\xff\xff"
        assert encode_udp_datagram(0, 0, b"\xff\xda", zero, zero) == wire

    @given(
        dst_mac=mac_bytes, src_mac=mac_bytes, src_ip=ip_bytes, dst_ip=ip_bytes,
        proto=st.integers(min_value=0, max_value=255), ident=idents,
        payload=payloads,
    )
    @settings(max_examples=200)
    def test_ipv4_frame_bytes_identical(
        self, dst_mac, src_mac, src_ip, dst_ip, proto, ident, payload
    ):
        packet = Ipv4Packet(src_ip, dst_ip, proto, payload, ident=ident)
        reference = EthernetFrame(
            dst_mac, src_mac, ETHERTYPE_IPV4, ip_to_bytes(packet)
        ).to_bytes()
        fast = encode_ipv4_frame(
            dst_mac, src_mac, src_ip, dst_ip, proto, ident, payload
        )
        assert fast == reference

    @given(oversize=st.integers(min_value=MAX_PAYLOAD - 19, max_value=MAX_PAYLOAD + 40))
    @settings(max_examples=20)
    def test_mtu_reject_parity(self, oversize):
        """Both paths reject exactly when IP header + payload exceeds the MTU."""
        payload = bytes(oversize)
        args = (b"\x02" * 6, b"\x04" * 6, b"\x0a\0\0\x01", b"\x0a\0\0\x02", 6, 0, payload)
        if 20 + oversize > MAX_PAYLOAD:
            with pytest.raises(PacketError):
                encode_ipv4_frame(*args)
            with pytest.raises(PacketError):
                EthernetFrame(
                    args[0], args[1], ETHERTYPE_IPV4,
                    ip_to_bytes(Ipv4Packet(args[2], args[3], 6, payload)),
                )
        else:
            assert len(encode_ipv4_frame(*args)) == 34 + oversize


# -- parse → fault-mutate → reserialise ------------------------------------


class TestParseMutateReserialise:
    @given(frame=ipv4_frames())
    @settings(max_examples=150)
    def test_valid_frames_parse_identically(self, frame):
        fast = parse_ipv4_frame(frame)
        reference = ip_from_bytes(frame[14:], verify=True)
        assert fast == ip_fields(reference)
        # The parsed fields reserialise exactly like the constructor-built
        # packet (and reproduce the original wire bytes).
        assert reencode_ipv4(frame, fast) == frame
        assert ip_to_bytes(reference) == frame[14:]

    @given(data=st.data())
    @settings(max_examples=250)
    def test_mutated_frames_agree_on_accept_and_reject(self, data):
        """Splice arbitrary bytes anywhere into a valid frame (the raw form
        of a MODIFY fault without checksum fixup): fast and reference must
        agree on the exception class or on every parsed field."""
        frame = data.draw(ipv4_frames())
        offset = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        width = data.draw(st.integers(min_value=1, max_value=min(4, len(frame) - offset)))
        splice = data.draw(st.binary(min_size=width, max_size=width))
        mutant = patch_bytes(frame, offset, splice)

        fast_tag, fast_ip = outcome(parse_ipv4_frame, mutant)
        ref_tag, ref_ip = outcome(ip_from_bytes, mutant[14:], True)
        assert fast_tag == ref_tag
        if fast_tag != "ok":
            return
        assert fast_ip == ip_fields(ref_ip)
        src, dst, protocol, payload = fast_ip
        if protocol == PROTO_TCP:
            fast_t = outcome(parse_tcp_segment, payload, tcp_flow_sum(src, dst))
            ref_t = outcome(tcp_from_bytes, ref_ip.payload, ref_ip.src, ref_ip.dst)
        elif protocol == PROTO_UDP:
            fast_t = outcome(parse_udp_datagram, payload, src, dst)
            ref_t = outcome(udp_from_bytes, ref_ip.payload, ref_ip.src, ref_ip.dst)
        else:
            return
        assert fast_t[0] == ref_t[0]

    @given(wire=tcp_wire())
    @settings(max_examples=150)
    def test_tcp_parse_and_reserialise_round_trip(self, wire):
        src_ip, dst_ip, seg = wire
        data = tcp_to_bytes(seg, src_ip, dst_ip)
        fast = parse_tcp_segment(data, tcp_flow_sum(src_ip, dst_ip))
        reference = tcp_from_bytes(data, src_ip, dst_ip, verify=True)
        for field in ("src_port", "dst_port", "seq", "ack", "flags", "window", "payload"):
            assert getattr(fast, field) == getattr(reference, field)
        assert encode_tcp_segment(fast, tcp_flow_sum(src_ip, dst_ip)) == data
        assert tcp_to_bytes(fast, src_ip, dst_ip) == data

    @given(wire=udp_wire())
    @settings(max_examples=150)
    def test_udp_parse_and_reserialise_round_trip(self, wire):
        src_ip, dst_ip, dgram = wire
        data = udp_to_bytes(dgram, src_ip, dst_ip)
        fast = parse_udp_datagram(data, src_ip, dst_ip)
        reference = udp_from_bytes(data, src_ip, dst_ip, verify=True)
        assert fast == udp_fields(reference)
        assert encode_udp_datagram(*fast, src_ip, dst_ip) == data


# -- checksum rewrites ------------------------------------------------------


class TestChecksumRewrites:
    """The MODIFY-fault flow: mutate a header field, rewrite the checksum
    with the fast helpers, and both parsers must accept the result."""

    @given(wire=tcp_wire(), new_port=ports)
    @settings(max_examples=100)
    def test_tcp_field_rewrite_verifies_on_both_paths(self, wire, new_port):
        src_ip, dst_ip, seg = wire
        data = patch_bytes(tcp_to_bytes(seg, src_ip, dst_ip), 2, new_port.to_bytes(2, "big"))
        zeroed = patch_bytes(data, 16, b"\x00\x00")
        total = pseudo_header_sum(
            src_ip.packed, dst_ip.packed, PROTO_TCP, len(zeroed)
        ) + checksum_sum16(zeroed)
        rewritten = patch_bytes(data, 16, fold_checksum(total).to_bytes(2, "big"))
        fast = parse_tcp_segment(rewritten, tcp_flow_sum(src_ip, dst_ip))
        reference = tcp_from_bytes(rewritten, src_ip, dst_ip, verify=True)
        assert fast.dst_port == reference.dst_port == new_port
        assert tcp_to_bytes(reference, src_ip, dst_ip) == rewritten

    @given(wire=udp_wire(), new_port=ports)
    @settings(max_examples=100)
    def test_udp_field_rewrite_verifies_on_both_paths(self, wire, new_port):
        src_ip, dst_ip, dgram = wire
        data = patch_bytes(udp_to_bytes(dgram, src_ip, dst_ip), 2, new_port.to_bytes(2, "big"))
        zeroed = patch_bytes(data, 6, b"\x00\x00")
        total = pseudo_header_sum(
            src_ip.packed, dst_ip.packed, PROTO_UDP, len(zeroed)
        ) + checksum_sum16(zeroed)
        checksum = fold_checksum(total) or 0xFFFF
        rewritten = patch_bytes(data, 6, checksum.to_bytes(2, "big"))
        fast = parse_udp_datagram(rewritten, src_ip, dst_ip)
        reference = udp_from_bytes(rewritten, src_ip, dst_ip, verify=True)
        assert fast == udp_fields(reference)
        assert reference.dst_port == new_port

    @given(frame=ipv4_frames(), new_ident=idents)
    @settings(max_examples=100)
    def test_ip_header_rewrite_verifies_on_both_paths(self, frame, new_ident):
        mutated = patch_bytes(frame, 18, new_ident.to_bytes(2, "big"))
        zeroed = patch_bytes(mutated, 24, b"\x00\x00")
        checksum = fold_checksum(checksum_sum16(zeroed[14:34]))
        rewritten = patch_bytes(mutated, 24, checksum.to_bytes(2, "big"))
        fast = parse_ipv4_frame(rewritten)
        reference = ip_from_bytes(rewritten[14:], verify=True)
        assert fast == ip_fields(reference)
        assert reference.ident == new_ident
        assert reencode_ipv4(rewritten, fast) == rewritten


# -- truncated frames -------------------------------------------------------


class TestTruncatedFrames:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_parsers_agree_on_truncation(self, data):
        frame = data.draw(ipv4_frames())
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        truncated = frame[:cut]
        fast_tag, fast_ip = outcome(parse_ipv4_frame, truncated)
        ref_tag, ref_ip = outcome(ip_from_bytes, truncated[14:], True)
        assert fast_tag == ref_tag
        if fast_tag == "ok":
            assert fast_ip == ip_fields(ref_ip)


# -- VAR-reach edges --------------------------------------------------------


class TestVarReachEdges:
    def test_var_binds_at_exact_boundary_only(self):
        """A VAR read ending exactly at the frame end binds; one byte past
        must miss — identically on the linear oracle and production."""
        table = FilterTable([FilterEntry("edge", (FilterTuple(4, 4, VarRef("V")),))])
        linear, compiled = LinearClassifier(table), Classifier(table)
        at_edge = b"\x00" * 4 + (0xDEADBEEF).to_bytes(4, "big")
        for frame in (at_edge, at_edge[:-1], at_edge, b""):
            assert compiled.classify(frame) == linear.classify(frame)
            assert compiled.vars == linear.vars
        assert linear.vars == {"V": 0xDEADBEEF}

    @given(data=st.data())
    @settings(max_examples=150)
    def test_reads_straddling_the_edge_agree(self, data):
        """Exact, masked and VAR tuples whose reads land on, before, or past
        the frame edge: production ≡ linear on match, scan count and bindings."""
        nbytes = data.draw(st.sampled_from([1, 2, 4]))
        offset = data.draw(st.integers(min_value=0, max_value=12))
        kind = data.draw(st.sampled_from(["exact", "masked", "var"]))
        if kind == "var":
            tup = FilterTuple(offset, nbytes, VarRef("Edge"))
        elif kind == "masked":
            tup = FilterTuple(offset, nbytes, 1, mask=1)
        else:
            tup = FilterTuple(offset, nbytes, data.draw(st.integers(0, 3)))
        table = FilterTable([FilterEntry("p", (tup,))])
        linear, compiled = LinearClassifier(table), Classifier(table)
        # Lengths clustered on the boundary: end-1, end, end+1 and extremes.
        end = offset + nbytes
        for length in sorted({0, max(0, end - 1), end, end + 1, end + 8}):
            frame = data.draw(st.binary(min_size=length, max_size=length))
            assert compiled.classify(frame) == linear.classify(frame)
            assert compiled.vars == linear.vars


# -- checksum helpers -------------------------------------------------------


class TestChecksumHelpers:
    @given(data=st.binary(max_size=512))
    @settings(max_examples=300)
    def test_fast_checksum_equals_reference(self, data):
        assert fold_checksum(checksum_sum16(data)) == internet_checksum(data)

    @given(data=st.binary(max_size=256))
    def test_accepts_any_buffer_type(self, data):
        expected = internet_checksum(data)
        assert fold_checksum(checksum_sum16(bytearray(data))) == expected
        assert fold_checksum(checksum_sum16(memoryview(bytes(data)))) == expected

    @given(
        head=st.binary(max_size=128).filter(lambda d: len(d) % 2 == 0),
        tail=st.binary(max_size=128),
    )
    @settings(max_examples=200)
    def test_partial_sums_are_addable(self, head, tail):
        """The fastpath composes per-fragment sums (header fields, payload)
        and folds once; that equals one checksum over the concatenation as
        long as only the final fragment is odd-length."""
        combined = fold_checksum(checksum_sum16(head) + checksum_sum16(tail))
        assert combined == internet_checksum(head + tail)

    @given(src=ip_bytes, dst=ip_bytes, proto=st.integers(0, 255), length=ports)
    def test_pseudo_header_sum_matches_byte_form(self, src, dst, proto, length):
        wire = pseudo_header(IpAddress(src), IpAddress(dst), proto, length)
        assert fold_checksum(pseudo_header_sum(src, dst, proto, length)) == (
            internet_checksum(wire)
        )


def word_loop_sum(data) -> int:
    """The word-loop reference (``internet_checksum``: one 16-bit big-endian
    word at a time, an odd tail zero-padded), folded and not complemented."""
    return internet_checksum(bytes(data)) ^ 0xFFFF


def flip_bit(data: bytes, bit: int) -> bytes:
    return patch_bytes(data, bit // 8, bytes([data[bit // 8] ^ (0x80 >> bit % 8)]))


class TestChecksumKernel:
    """``checksum_sum16`` is one big-integer reduction mod 0xFFFF; these pin
    it to the word loop, including the 0 / 0xFFFF representation of the
    folded sum that a bare ``%`` would lose."""

    @given(data=st.binary(max_size=2048))
    @settings(max_examples=400)
    def test_equals_the_word_loop_on_every_buffer_type(self, data):
        expected = word_loop_sum(data)
        assert checksum_sum16(data) == expected
        assert checksum_sum16(bytearray(data)) == expected
        assert checksum_sum16(memoryview(data)) == expected

    @given(length=st.integers(min_value=0, max_value=2048))
    def test_all_zero_is_zero(self, length):
        assert checksum_sum16(bytes(length)) == 0

    @given(words=st.integers(min_value=1, max_value=1024))
    def test_all_ones_is_all_ones(self, words):
        assert checksum_sum16(b"\xff\xff" * words) == 0xFFFF

    @given(words=st.lists(st.sampled_from([0x0000, 0xFFFF, 0x0001, 0xFFFE]), max_size=64))
    def test_multiples_of_all_ones_keep_their_representation(self, words):
        """Sums that are 0 mod 0xFFFF: zero only when every word is zero."""
        data = b"".join(w.to_bytes(2, "big") for w in words)
        assert checksum_sum16(data) == word_loop_sum(data)
        assert (checksum_sum16(data) == 0) == (not any(data))

    @given(data=st.binary(max_size=2047).filter(lambda d: len(d) % 2 == 1))
    def test_odd_lengths_are_zero_padded(self, data):
        assert checksum_sum16(data) == checksum_sum16(data + b"\x00")

    @given(data=st.binary(max_size=2048), cut=st.integers(min_value=0, max_value=1024))
    @settings(max_examples=300)
    def test_splitting_at_any_even_offset_folds_to_the_whole(self, data, cut):
        offset = min(2 * cut, len(data) & ~1)
        parts = checksum_sum16(data[:offset]) + checksum_sum16(data[offset:])
        assert fold_checksum(parts) == fold_checksum(checksum_sum16(data))
        assert fold_checksum(parts) == internet_checksum(data)


class TestSingleBitFlipsAreRejected:
    """Every byte is still summed: one flipped bit anywhere the checksum
    covers is refused, with the exception class the readable parser raises."""

    @given(frame=ipv4_frames(), bit=st.integers(min_value=0, max_value=20 * 8 - 1))
    @settings(max_examples=300)
    def test_ip_header(self, frame, bit):
        mutant = flip_bit(frame, 14 * 8 + bit)
        fast_tag, _ = outcome(parse_ipv4_frame, mutant)
        ref_tag, _ = outcome(ip_from_bytes, mutant[14:], True)
        assert fast_tag == ref_tag != "ok"

    @given(wire=tcp_wire(), data=st.data())
    @settings(max_examples=300)
    def test_tcp_segment(self, wire, data):
        src_ip, dst_ip, seg = wire
        valid = tcp_to_bytes(seg, src_ip, dst_ip)
        mutant = flip_bit(valid, data.draw(st.integers(0, len(valid) * 8 - 1)))
        fast_tag, _ = outcome(parse_tcp_segment, mutant, tcp_flow_sum(src_ip, dst_ip))
        ref_tag, _ = outcome(tcp_from_bytes, mutant, src_ip, dst_ip, True)
        assert fast_tag == ref_tag != "ok"

    @given(wire=udp_wire(), data=st.data())
    @settings(max_examples=300)
    def test_udp_datagram(self, wire, data):
        src_ip, dst_ip, dgram = wire
        valid = udp_to_bytes(dgram, src_ip, dst_ip)
        bit = data.draw(st.integers(0, len(valid) * 8 - 1))
        mutant = flip_bit(valid, bit)
        fast_tag, _ = outcome(parse_udp_datagram, mutant, src_ip, dst_ip)
        ref_tag, _ = outcome(udp_from_bytes, mutant, src_ip, dst_ip, True)
        assert fast_tag == ref_tag
        # RFC 768: a zero checksum field switches verification off, and a
        # shorter length field moves what is covered; everywhere else the
        # flip must be caught.
        if bit // 8 not in (4, 5) and mutant[6:8] != b"\x00\x00":
            assert fast_tag == "checksum"


# -- RLL fast helpers -------------------------------------------------------


class TestRllFastHelpers:
    @given(
        dst=mac_bytes, src=mac_bytes, ethertype=ports,
        payload=st.binary(max_size=512), seq=ports, ack=ports,
    )
    @settings(max_examples=200)
    def test_data_encap_matches_reference_and_round_trips(
        self, dst, src, ethertype, payload, seq, ack
    ):
        inner = EthernetFrame(dst, src, ethertype, payload)
        fb = inner.to_bytes()
        reference = RllFrame.data_for(inner, seq, ack).wrap(inner.dst, inner.src)
        wire = encap_data_fast(fb, seq, ack)
        assert wire == reference.to_bytes()
        assert decap_data_fast(wire) == fb
        shim = RllFrame.parse(wire[14:])
        assert (shim.seq, shim.ack, shim.inner_ethertype) == (seq, ack, ethertype)

    @given(dst=mac_bytes, src=mac_bytes, ack=ports)
    @settings(max_examples=200)
    def test_pure_ack_matches_reference(self, dst, src, ack):
        reference = RllFrame.pure_ack(ack).wrap(MacAddress(dst), MacAddress(src))
        wire = encap_ack_fast(dst, src, ack)
        assert wire == reference.to_bytes()
        # The full 8-byte shim is present: parse must see it, not a runt.
        shim = RllFrame.parse(wire[14:])
        assert (shim.kind, shim.ack, shim.inner_ethertype) == (2, ack, 0)

    @given(extra=st.integers(min_value=0, max_value=16))
    @settings(max_examples=17)
    def test_encap_mtu_reject_parity(self, extra):
        """Shim insertion may push a near-MTU frame over the limit; fast and
        reference must agree on exactly where the reject begins."""
        payload_len = MAX_PAYLOAD - 8 - 8 + extra
        inner = EthernetFrame(b"\x02" * 6, b"\x04" * 6, 0x0800, bytes(payload_len))
        fb = inner.to_bytes()
        if payload_len + 8 > MAX_PAYLOAD:
            with pytest.raises(PacketError):
                encap_data_fast(fb, 1, 2)
            with pytest.raises(PacketError):
                RllFrame.data_for(inner, 1, 2).wrap(inner.dst, inner.src)
        else:
            assert encap_data_fast(fb, 1, 2) == RllFrame.data_for(
                inner, 1, 2
            ).wrap(inner.dst, inner.src).to_bytes()
