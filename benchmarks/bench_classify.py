"""Ablation: linear reference vs the production indexed classifier.

The paper attributes Fig 8's linear latency growth to the engine searching
"linearly through the packet type definitions for the exact match" (§7).
This benchmark quantifies that design choice: it measures the linear scan
(the test oracle, ``tests/oracles``) against the production
:class:`Classifier` over growing filter tables, and differentially checks
that the two stay observationally identical on a mixed packet workload.

Real (wall-clock) classification cost is what the index flattens; the
*virtual-time* cost model still charges the paper's linear scan — see
docs/CLASSIFIER.md and the parity test in bench_fig8_latency.py.

Quick mode (``BENCH_CLASSIFY_QUICK=1`` in the environment) shrinks the
sweep so the differential section doubles as a tier-1 smoke test; results
land in benchmarks/results/classify_ablation.txt.
"""

import os
import time
from typing import List, Tuple

import pytest

from conftest import save_table
from repro.core.classify import Classifier
from repro.core.tables import FilterEntry, FilterTable, FilterTuple, VarRef
from repro.net import FLAG_ACK, TcpSegment, build_tcp_frame
from tests.oracles.classifiers import LinearClassifier

QUICK = os.environ.get("BENCH_CLASSIFY_QUICK", "0") == "1"
TABLE_SIZES = (5, 50) if QUICK else (5, 25, 100, 400)
PACKETS_PER_ROUND = 200 if QUICK else 2_000
#: acceptance bar: production index vs linear reference at the largest
#: table (400 entries in the full sweep).
MIN_SPEEDUP = 5.0


def build_table(n_entries: int) -> FilterTable:
    """A table whose live TCP entry is last, behind n-1 decoys."""
    entries = [
        FilterEntry(
            f"decoy{i}",
            (FilterTuple(12, 2, 0x9000 + i), FilterTuple(14, 2, i & 0xFFFF)),
        )
        for i in range(n_entries - 1)
    ]
    entries.append(
        FilterEntry(
            "tcp_data",
            (
                FilterTuple(34, 2, 0x6000),
                FilterTuple(36, 2, 0x4000),
                FilterTuple(47, 1, 0x10, mask=0x10),
            ),
        )
    )
    return FilterTable(entries)


def sample_packet() -> bytes:
    seg = TcpSegment(0x6000, 0x4000, 1, 2, FLAG_ACK, 512, bytes(64))
    return build_tcp_frame(
        "02:00:00:00:00:01",
        "02:00:00:00:00:02",
        "10.0.0.1",
        "10.0.0.2",
        seg,
    ).to_bytes()


def decoy_packet(index: int) -> bytes:
    frame = bytearray(60)
    frame[12:14] = (0x9000 + index).to_bytes(2, "big")
    frame[14:16] = (index & 0xFFFF).to_bytes(2, "big")
    return bytes(frame)


def unmatched_packet() -> bytes:
    frame = bytearray(60)
    frame[12:14] = (0x1234).to_bytes(2, "big")
    return bytes(frame)


def mixed_workload(size: int) -> List[bytes]:
    """Matching, decoy-hitting, unmatched and truncated frames."""
    packets = [sample_packet(), unmatched_packet(), sample_packet()[:30], b""]
    packets += [decoy_packet(i) for i in range(0, max(size - 1, 1), 7)]
    return packets


@pytest.fixture(scope="module")
def results() -> List[Tuple[int, float, float]]:
    packet = sample_packet()
    rows = []
    for size in TABLE_SIZES:
        table = build_table(size)
        linear = LinearClassifier(table)
        indexed = Classifier(table)
        t0 = time.perf_counter()
        for _ in range(PACKETS_PER_ROUND):
            linear.classify(packet)
        linear_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(PACKETS_PER_ROUND):
            indexed.classify(packet)
        indexed_s = time.perf_counter() - t0
        rows.append((size, linear_s, indexed_s))
    lines = [
        f"{'entries':>8} {'linear us/pkt':>14} {'indexed us/pkt':>15} {'speedup':>8}"
    ]
    for size, linear_s, indexed_s in rows:
        lines.append(
            f"{size:>8} {linear_s / PACKETS_PER_ROUND * 1e6:>14.2f} "
            f"{indexed_s / PACKETS_PER_ROUND * 1e6:>15.2f} "
            f"{linear_s / max(indexed_s, 1e-12):>7.1f}x"
        )
    save_table("classify_ablation", "\n".join(lines))
    return rows


class TestClassifyAblation:
    def test_linear_cost_grows_with_table(self, benchmark, results):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        small = results[0][1]
        large = results[-1][1]
        assert large > small * 2  # the linear term is visible in the sweep

    def test_indexed_cost_stays_flat(self, benchmark, results):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        small = results[0][2]
        large = results[-1][2]
        assert large < small * 5  # bucketing removes the linear term

    def test_production_speedup_at_largest_table(self, benchmark, results):
        """Acceptance bar: the production index is ≥5× faster than the

        linear reference at the largest table of the sweep (400 entries
        in the full run).
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        size, linear_s, indexed_s = results[-1]
        speedup = linear_s / max(indexed_s, 1e-12)
        assert speedup >= MIN_SPEEDUP, (
            f"indexed classifier only {speedup:.1f}x faster than linear "
            f"at {size} entries (need {MIN_SPEEDUP}x)"
        )

    def test_index_does_less_real_work(self, benchmark):
        """The result/cost split made explicit: identical charged scans,

        far fewer entries actually examined.
        """
        table = build_table(max(TABLE_SIZES))
        packet = sample_packet()
        benchmark.pedantic(
            lambda: Classifier(table).classify(packet), rounds=1, iterations=1
        )
        linear = LinearClassifier(table)
        indexed = Classifier(table)
        for _ in range(50):
            linear.classify(packet)
            indexed.classify(packet)
        assert indexed.entries_scanned_total == linear.entries_scanned_total
        assert indexed.entries_examined_total * 10 < linear.entries_examined_total

    def test_linear_throughput(self, benchmark):
        """Raw packets/second through the linear reference at the paper's

        25-entry table size.
        """
        table = build_table(25)
        classifier = LinearClassifier(table)
        packet = sample_packet()
        benchmark(lambda: classifier.classify(packet))

    def test_indexed_throughput(self, benchmark):
        """Raw packets/second through the production classifier at the

        paper's 25-entry table size.
        """
        table = build_table(25)
        classifier = Classifier(table)
        packet = sample_packet()
        benchmark(lambda: classifier.classify(packet))


class TestDifferentialSmoke:
    """Deterministic differential sweep (the quick-mode smoke test)."""

    def test_equivalence_on_mixed_workload(self, benchmark):
        def sweep():
            for size in TABLE_SIZES:
                table = build_table(size)
                linear = LinearClassifier(table)
                indexed = Classifier(table)
                for packet in mixed_workload(size):
                    assert indexed.classify(packet) == linear.classify(packet)
                assert indexed.packets_classified == linear.packets_classified
                assert indexed.packets_unmatched == linear.packets_unmatched
                assert (
                    indexed.entries_scanned_total == linear.entries_scanned_total
                )
            return True

        assert benchmark.pedantic(sweep, rounds=1, iterations=1)

    def test_equivalence_with_var_entries(self, benchmark):
        table = FilterTable(
            [
                FilterEntry(
                    "rt",
                    (
                        FilterTuple(34, 2, 0x6000),
                        FilterTuple(38, 4, VarRef("Seq")),
                        FilterTuple(47, 1, 0x10, mask=0x10),
                    ),
                ),
                FilterEntry(
                    "data",
                    (FilterTuple(34, 2, 0x6000), FilterTuple(47, 1, 0x10, mask=0x10)),
                ),
            ]
        )
        linear = LinearClassifier(table)
        indexed = Classifier(table)
        packet = sample_packet()
        result = benchmark.pedantic(
            lambda: indexed.classify(packet), rounds=1, iterations=1
        )
        assert result == linear.classify(packet)
        assert indexed.vars.snapshot() == linear.vars.snapshot()
