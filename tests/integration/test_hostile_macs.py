"""Integration: frames from and to arbitrary MACs beside a live Fig 5 run.

The engine names a frame's endpoints through a table keyed by the frame's
12 address bytes.  That table is filled from the node table when the
program is built — |nodes|² entries — and must never grow with what
arrives on the wire: 10 000 classified frames between random MACs leave it
as it was, and leave the scenario's verdict and counters as they are
without them.
"""

import random

from repro.net.tcp_segment import FLAG_ACK, FLAG_SYN, TcpSegment
from repro.sim import us
from tests.integration.test_control_plane_reliability import run_fig5
from tests.oracles.codec import build_tcp_frame

HOSTILE_FRAMES = 10_000
#: spacing of the hostile frames: they arrive through the first 2 s.
SPACING = us(200)


def hostile_frames(count, seed=5):
    """*count* TCP frames the Fig 5 filters classify — TCP_data, TCP_ack or
    TCP_synack by ports and flags — each between two random MACs and
    addressed to an IP no host has, so the IP layer drops it."""
    rng = random.Random(seed)
    frames = []
    for index in range(count):
        ports = (0x6000, 0x4000) if index % 2 else (0x4000, 0x6000)
        flags = FLAG_SYN | FLAG_ACK if index % 3 == 0 else FLAG_ACK
        segment = TcpSegment(*ports, seq=index, ack=0, flags=flags, window=1024)
        mac = [":".join(f"{b:02x}" for b in rng.randbytes(6)) for _ in range(2)]
        frames.append(
            build_tcp_frame(mac[0], mac[1], "192.168.1.1", "10.9.8.7", segment).to_bytes()
        )
    return frames


class TestRandomMacs:
    def test_endpoint_table_stays_bounded_and_fig5_unchanged(self):
        frames = hostile_frames(HOSTILE_FRAMES)
        testbeds = []

        def flood(tb):
            testbeds.append(tb)
            node2 = tb.hosts["node2"]
            node2.nic.promiscuous = True  # the engine sees every one of them
            for index, frame in enumerate(frames):
                tb.sim.after((index + 1) * SPACING, node2.nic.deliver, args=(frame,))

        baseline, _ = run_fig5()
        report, _ = run_fig5(during=flood)
        assert report.passed, report.render()
        assert report.end_reason == baseline.end_reason
        assert report.final_counters == baseline.final_counters
        assert report.counters == baseline.counters
        engine = testbeds[0].engines["node2"]
        classified = report.engine_stats["node2"]["packets_classified"]
        assert classified - baseline.engine_stats["node2"]["packets_classified"] == HOSTILE_FRAMES
        nodes = engine.program.nodes
        assert len(nodes._names_by_header) == len(nodes) ** 2
        for frame in frames[:100]:
            assert nodes.endpoint_names(frame) == (None, None)
