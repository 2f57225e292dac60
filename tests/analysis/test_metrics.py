"""Unit tests for the metrics registry (repro.analysis.metrics)."""

import json

import pytest

from repro.analysis import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    merge_values,
    render_metrics,
)
from repro.sim import seconds
from tests.conftest import make_testbed


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc()
        assert c.snapshot() == 2

    def test_gauge_tracks_extremes(self):
        g = Gauge()
        for v in (3, 1, 7, 2):
            g.set(v)
        snap = g.snapshot()
        assert snap["last"] == 2
        assert snap["min"] == 1
        assert snap["max"] == 7
        assert snap["samples"] == 4

    def test_histogram_log2_buckets(self):
        h = Histogram()
        for v in (0, 1, 2, 3, 1024):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 1030
        assert snap["min"] == 0
        assert snap["max"] == 1024
        # bit_length buckets: 0 -> 0, 1 -> 1, 2/3 -> 2, 1024 -> 11
        assert snap["buckets"] == {"0": 1, "1": 1, "2": 2, "11": 1}


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.node("node1").counter("tcp", "rtx")
        b = reg.node("node1").counter("tcp", "rtx")
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.node("node1").counter("tcp", "rtx")
        with pytest.raises(TypeError):
            reg.node("node1").gauge("tcp", "rtx")

    def test_snapshot_is_canonical_json(self):
        reg = MetricsRegistry()
        reg.node("node2").counter("b", "x").inc()
        reg.node("node1").histogram("a", "h").observe(5)
        reg.node("node1").gauge("z", "g").set(2)
        snap = reg.snapshot()
        assert list(snap) == ["node1", "node2"]
        assert list(snap["node1"]) == ["a.h", "z.g"]
        # Round-trips through canonical JSON without loss.
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap


class TestMerge:
    def test_counters_add(self):
        assert merge_values(3, 4) == 7

    def test_histogram_merge_equals_combined_stream(self):
        a, b, combined = Histogram(), Histogram(), Histogram()
        for v in (1, 5, 9):
            a.observe(v)
            combined.observe(v)
        for v in (2, 1000):
            b.observe(v)
            combined.observe(v)
        assert merge_values(a.snapshot(), b.snapshot()) == combined.snapshot()

    def test_gauge_merge(self):
        a, b = Gauge(), Gauge()
        a.set(5)
        b.set(2)
        b.set(9)
        merged = merge_values(a.snapshot(), b.snapshot())
        assert merged == {
            "type": "gauge",
            "last": 9,
            "min": 2,
            "max": 9,
            "samples": 3,
        }

    def test_empty_side_is_identity(self):
        empty = Histogram().snapshot()
        full = Histogram()
        full.observe(7)
        assert merge_values(empty, full.snapshot()) == full.snapshot()
        assert merge_values(full.snapshot(), empty) == full.snapshot()

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            merge_values(Gauge().snapshot(), Histogram().snapshot())

    def test_merge_snapshots_unions_nodes(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1.node("node1").counter("tcp", "rtx").value += 2
        reg2.node("node1").counter("tcp", "rtx").value += 3
        reg2.node("node2").counter("tcp", "rtx").value += 1
        merged = merge_snapshots([reg1.snapshot(), reg2.snapshot()])
        assert merged == {
            "node1": {"tcp.rtx": 5},
            "node2": {"tcp.rtx": 1},
        }


class TestRender:
    def test_render_all_kinds(self):
        reg = MetricsRegistry()
        node = reg.node("node1")
        node.counter("tcp", "rtx").value += 3
        node.gauge("tcp", "cwnd").set(8)
        node.histogram("tcp", "rtt_ns").observe(100)
        text = render_metrics(reg.snapshot())
        assert "node1:" in text
        assert "tcp.rtx" in text and "3" in text
        assert "last=8" in text
        assert "count=1" in text


class TestReadFromLayers:
    """A count a layer already keeps is read at snapshot, not counted twice."""

    def test_read_sums_every_source_at_snapshot_time(self):
        class Layer:
            retransmissions = 0

        reg = MetricsRegistry()
        first, second = Layer(), Layer()
        reg.node("node1").read("rll", first, "retransmissions")
        reg.node("node1").read("rll", second, "retransmissions")
        first.retransmissions, second.retransmissions = 2, 3
        assert reg.snapshot() == {"node1": {"rll.retransmissions": 5}}


LEVEL_SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO levels
  P: (probe, node1, node2, RECV)
  ((P <= 3)) >> DELAY probe, node1, node2, RECV, 15;
END
"""


def run_levels(workload_for):
    """A telemetry run over the RLL; node1's first three UDP probes to
    node2 are held in node2's delay queue."""
    tb, (n1, n2) = make_testbed(2, seed=3, rll=True, telemetry=True)
    report = tb.run_scenario(
        LEVEL_SCRIPT.format(nodes=tb.node_table_fsl()),
        workload=workload_for(tb, n1, n2),
        max_time=seconds(10),
    )
    assert report.passed, report.render()
    return tb, report


def udp_probes(tb, n1, n2):
    def workload():
        n2.udp.bind(7)
        sender = n1.udp.bind(0)
        for i in range(3):
            tb.sim.after((i + 1) * 1_000_000, lambda: sender.sendto(bytes(20), n2.ip, 7))

    return workload


def tcp_bulk(tb, n1, n2):
    def workload():
        n2.tcp.listen(0x4000)
        conn = n1.tcp.connect(n2.ip, 0x4000, local_port=0x6000)
        conn.on_established = lambda: conn.send(bytes(64 * 1024))

    return workload


class TestLevelGaugesSampleEveryChange:
    """A level gauge samples when the level falls too, so a drained queue
    reads ``last == 0`` and its minimum is the empty level."""

    def test_delay_queue_depth_returns_to_zero(self):
        tb, report = run_levels(udp_probes)
        assert tb.engines["node2"]._delay_queue.delayed_packets == 3
        assert tb.engines["node2"]._delay_queue.in_flight == 0
        depth = report.metrics["node2"]["engine.delay_queue_depth"]
        assert depth["last"] == 0 and depth["min"] == 0

    def test_rll_backlog_depth_returns_to_zero(self):
        tb, report = run_levels(tcp_bulk)
        (peer,) = tb.rll_layers["node1"]._peers.values()
        assert not peer.backlog
        backlog = report.metrics["node1"]["rll.backlog_depth"]
        assert backlog["max"] > 0, "test misconfigured: the window never filled"
        assert backlog["last"] == 0 and backlog["min"] == 0
