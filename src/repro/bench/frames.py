"""Frames-per-second measurement of the frame hot path.

``measure_hotpath_point`` replays the wire frames captured from one Fig 7
cell — RLL-encapsulated TCP data, TCP acks and RLL pure acks under the
25-filter/25-action configuration — through exactly the per-frame codec
work of the pipeline: RLL decap, twice-per-hook classification, endpoint
lookup, IP+TCP parse with checksum verification, and the transmit-side
re-serialisation back to wire bytes (asserted equal to the captured frame,
so the replay checks itself).  The replay strips the shared
simulator/TCP-state-machine cost, so its frames/sec isolates the codec.

The only caller is the performance ledger (``benchmarks/ledger``), which
reports the figure as ``net.codec.frames_per_s`` and owns its trajectory
and regression gate; the end-to-end cell is the ledger's ``fig7_vw``
workload (docs/PERF.md discusses the split).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from ..core.classify import Classifier
from ..core.tables import CompiledProgram
from ..core.testbed import Testbed
from ..errors import ScenarioError
from ..net.fastpath import (
    encode_ipv4_frame,
    encode_tcp_segment,
    parse_ipv4_frame,
    parse_tcp_segment,
    tcp_flow_sum,
)
from ..net.frame import ETHERTYPE_IPV4, ETHERTYPE_RLL
from ..net.ip import PROTO_TCP
from ..rll.frames import KIND_ACK, decap_data_fast, encap_ack_fast, encap_data_fast
from ..sim import NS_PER_SEC, ms, seconds
from ..workloads.bulk import BulkReceiver, PacedSender
from .fig7 import _tcp_script
from .harness import RECEIVER_PORT, SENDER_PORT, two_node_testbed

DEFAULT_OFFERED_MBPS = 90.0


@dataclass
class FramesResult:
    """One wall-clock measurement of the frame hot path."""

    frames: int
    wall_s: float
    frames_per_sec: float
    offered_mbps: float
    duration_ns: int
    seed: int


#: Virtual capture time for the replay stream: a couple thousand frames.
HOTPATH_CAPTURE_NS = int(0.05 * NS_PER_SEC)
#: Replay passes; repeats only narrow the wall-clock jitter.
HOTPATH_REPEATS = 3


def capture_fig7_stream(seed: int) -> Tuple[List[bytes], CompiledProgram]:
    """Run one short Fig 7 cell (:data:`DEFAULT_OFFERED_MBPS` offered for
    :data:`HOTPATH_CAPTURE_NS`) and record every data-plane wire frame.

    The tap sits at the NICs' transmit entry (below the drivers), so the
    stream holds exactly the on-wire bytes in transmission order:
    RLL-encapsulated TCP data and acks plus RLL pure acks.  Control-plane
    frames are filtered out — they cross the engine's control path, not
    the per-frame hot path this bench times.
    """
    tb, node1, node2 = two_node_testbed(
        seed=seed, medium="hub", install_vw=True, rll=True
    )
    BulkReceiver(node2, RECEIVER_PORT)
    stream: List[bytes] = []
    for node in (node1, node2):
        nic = node.driver.nic
        def tap(frame_bytes, _transmit=nic.transmit):
            stream.append(frame_bytes)
            _transmit(frame_bytes)
        nic.transmit = tap

    def workload() -> None:
        PacedSender(
            node1,
            node2.ip,
            RECEIVER_PORT,
            offered_bps=DEFAULT_OFFERED_MBPS * 1e6,
            duration_ns=HOTPATH_CAPTURE_NS,
            local_port=SENDER_PORT,
        )

    script = _tcp_script(tb.node_table_fsl())
    tb.run_scenario(
        script,
        workload=workload,
        max_time=HOTPATH_CAPTURE_NS + seconds(5),
        inactivity_ns=ms(200),
    )
    program = Testbed.compile_cached(script)

    def is_data_plane(frame: bytes) -> bool:
        ethertype = (frame[12] << 8) | frame[13]
        if ethertype == ETHERTYPE_IPV4:
            return True
        if ethertype != ETHERTYPE_RLL:
            return False  # raw control-plane frame
        if frame[14] == KIND_ACK:
            return True
        # RLL DATA also carries control frames; keep only IPv4 payloads.
        return ((frame[20] << 8) | frame[21]) == ETHERTYPE_IPV4

    data_plane = [frame for frame in stream if is_data_plane(frame)]
    if not data_plane:
        raise ScenarioError("fig7 capture produced no data-plane frames")
    return data_plane, program


def _replay(stream: List[bytes], classifier, nodes) -> None:
    """One pass of the per-frame pipeline over *stream*.

    Per frame: splice-based RLL decap, classification at both engine hooks,
    endpoint lookup, verified IPv4+TCP parse, then the transmit side's
    one-shot encoders back to wire bytes — checked byte-for-byte against
    the capture.
    """
    for data in stream:
        if ((data[12] << 8) | data[13]) == ETHERTYPE_RLL:
            if data[14] == KIND_ACK:
                ack = (data[18] << 8) | data[19]
                out = encap_ack_fast(data[:6], data[6:12], ack)
                if out != data:
                    raise ScenarioError("RLL ack round-trip diverged")
                continue
            shim_seq = (data[16] << 8) | data[17]
            shim_ack = (data[18] << 8) | data[19]
            inner_bytes = decap_data_fast(data)
            rll = True
        else:
            rll = False
            inner_bytes = data
        classifier.classify(inner_bytes)  # sender-side hook
        classifier.classify(inner_bytes)  # receiver-side hook
        nodes.by_mac_bytes(inner_bytes[6:12])
        nodes.by_mac_bytes(inner_bytes[0:6])
        packet = parse_ipv4_frame(inner_bytes)
        if packet.protocol != PROTO_TCP:
            continue
        flow_sum = tcp_flow_sum(packet.src, packet.dst)
        seg = parse_tcp_segment(packet.payload, flow_sum)
        frame2 = encode_ipv4_frame(
            inner_bytes[:6],
            inner_bytes[6:12],
            packet.src.packed,
            packet.dst.packed,
            packet.protocol,
            packet.ident,
            encode_tcp_segment(seg, flow_sum),
        )
        out = encap_data_fast(frame2, shim_seq, shim_ack) if rll else frame2
        if out != data:
            raise ScenarioError("frame round-trip diverged")


def measure_hotpath_point(frame_codec: str = "fast", seed: int = 0) -> FramesResult:
    """Time the per-frame hot path, :data:`HOTPATH_REPEATS` times over a
    fresh capture of the Fig 7 stream.

    *frame_codec* only accepts ``"fast"``: benchmarks/ledger passes it
    positionally.
    """
    if frame_codec != "fast":
        raise ValueError(f"the only frame codec is 'fast', not {frame_codec!r}")
    stream, program = capture_fig7_stream(seed)
    classifier = Classifier(program.filters)
    nodes = program.nodes
    started = time.perf_counter()
    for _ in range(HOTPATH_REPEATS):
        _replay(stream, classifier, nodes)
    wall_s = time.perf_counter() - started
    frames = len(stream) * HOTPATH_REPEATS
    return FramesResult(
        frames=frames,
        wall_s=round(wall_s, 4),
        frames_per_sec=round(frames / wall_s, 1),
        offered_mbps=DEFAULT_OFFERED_MBPS,
        duration_ns=HOTPATH_CAPTURE_NS,
        seed=seed,
    )
