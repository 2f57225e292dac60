"""Tests for packet classification: linear scan, masks, VAR binding.

Every behavioural test runs against the production classifier AND the
oracles of ``tests/oracles`` via the ``make`` fixture — all must be
observationally identical, including the *scanned* counts that feed the
Fig 8 cost model.
"""

import pytest

from repro.core.classify import Classifier
from repro.core.tables import FilterEntry, FilterTable, FilterTuple, VarRef
from repro.net import FLAG_ACK, FLAG_SYN, TcpSegment
from tests.oracles.classifiers import IndexedClassifier, LinearClassifier
from tests.oracles.codec import build_tcp_frame

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"


#: "compiled" is production (index + match programs); the others are
#: the oracles: the index walk without programs, and the linear scan.
KINDS = {
    "compiled": Classifier,
    "indexed": IndexedClassifier,
    "linear": LinearClassifier,
}


@pytest.fixture(params=sorted(KINDS))
def make(request):
    return KINDS[request.param]


def tcp_frame(src_port, dst_port, flags, seq=100):
    seg = TcpSegment(src_port, dst_port, seq, 0, flags, 512)
    return build_tcp_frame(
        SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", seg
    ).to_bytes()


def paper_filter_table():
    """The Fig 2 table (without the VAR retransmission entries)."""
    return FilterTable(
        [
            FilterEntry(
                "TCP_syn",
                (
                    FilterTuple(34, 2, 0x6000),
                    FilterTuple(36, 2, 0x4000),
                    FilterTuple(47, 1, 0x02, mask=0x02),
                ),
            ),
            FilterEntry(
                "TCP_synack",
                (
                    FilterTuple(34, 2, 0x4000),
                    FilterTuple(36, 2, 0x6000),
                    FilterTuple(47, 1, 0x12, mask=0x12),
                ),
            ),
            FilterEntry(
                "TCP_data",
                (
                    FilterTuple(34, 2, 0x6000),
                    FilterTuple(36, 2, 0x4000),
                    FilterTuple(47, 1, 0x10, mask=0x10),
                ),
            ),
            FilterEntry(
                "TCP_ack",
                (
                    FilterTuple(34, 2, 0x4000),
                    FilterTuple(36, 2, 0x6000),
                    FilterTuple(47, 1, 0x10, mask=0x10),
                ),
            ),
        ]
    )


class TestPaperClassification:
    def test_syn(self, make):
        classifier = make(paper_filter_table())
        name, scanned = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_SYN))
        assert name == "TCP_syn" and scanned == 1

    def test_synack_not_misclassified_as_ack(self, make):
        """A SYNACK satisfies TCP_ack's mask too; first match must win."""
        classifier = make(paper_filter_table())
        name, scanned = classifier.classify(
            tcp_frame(0x4000, 0x6000, FLAG_SYN | FLAG_ACK)
        )
        assert name == "TCP_synack" and scanned == 2

    def test_data(self, make):
        classifier = make(paper_filter_table())
        name, scanned = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK))
        assert name == "TCP_data" and scanned == 3

    def test_pure_ack(self, make):
        classifier = make(paper_filter_table())
        name, scanned = classifier.classify(tcp_frame(0x4000, 0x6000, FLAG_ACK))
        assert name == "TCP_ack" and scanned == 4

    def test_unmatched_scans_whole_table(self, make):
        classifier = make(paper_filter_table())
        name, scanned = classifier.classify(tcp_frame(0x1111, 0x2222, FLAG_ACK))
        assert name is None and scanned == 4

    def test_scan_accounting(self, make):
        classifier = make(paper_filter_table())
        results = [
            classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_SYN)),
            classifier.classify(tcp_frame(0x4000, 0x6000, FLAG_ACK)),
        ]
        assert results == [("TCP_syn", 1), ("TCP_ack", 4)]


class TestStatistics:
    """Pin the charged scan counts for every implementation, so the Fig 8

    cost accounting (the engine charges each returned *scanned* count, and
    counts it in ``EngineStats.filter_entries_scanned``) cannot silently
    drift when the fast path evolves.
    """

    #: (frame args, expected name, expected linear-equivalent scan count)
    TRAFFIC = [
        ((0x6000, 0x4000, FLAG_SYN), "TCP_syn", 1),
        ((0x4000, 0x6000, FLAG_SYN | FLAG_ACK), "TCP_synack", 2),
        ((0x6000, 0x4000, FLAG_ACK), "TCP_data", 3),
        ((0x4000, 0x6000, FLAG_ACK), "TCP_ack", 4),
        ((0x1111, 0x2222, FLAG_ACK), None, 4),
        ((0x6000, 0x4000, FLAG_ACK), "TCP_data", 3),
    ]

    def test_counters_pinned(self, make):
        classifier = make(paper_filter_table())
        results = [classifier.classify(tcp_frame(*args)) for args, _, _ in self.TRAFFIC]
        assert results == [(name, scanned) for _, name, scanned in self.TRAFFIC]
        assert sum(scanned for _, scanned in results) == 1 + 2 + 3 + 4 + 4 + 3

    def test_fresh_classifier_starts_at_zero(self, make):
        classifier = make(paper_filter_table())
        assert classifier.entries_examined_total == 0
        assert classifier.vars == {}

    def test_empty_table_counts_unmatched(self, make):
        classifier = make(FilterTable([]))
        assert classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK)) == (None, 0)
        assert classifier.entries_examined_total == 0

    def test_examined_never_exceeds_scanned_equivalent(self):
        """Production's real work is bounded by the charged scan count;

        the linear reference's real work IS the charged scan count.
        """
        linear = LinearClassifier(paper_filter_table())
        indexed = Classifier(paper_filter_table())
        charged = 0
        for args, _, _ in self.TRAFFIC:
            expected = linear.classify(tcp_frame(*args))
            assert indexed.classify(tcp_frame(*args)) == expected
            charged += expected[1]
        assert linear.entries_examined_total == charged
        assert indexed.entries_examined_total <= charged


class TestBoundsAndMasks:
    def test_short_packet_cannot_match(self, make):
        table = FilterTable([FilterEntry("deep", (FilterTuple(100, 4, 1),))])
        classifier = make(table)
        name, _ = classifier.classify(bytes(50))
        assert name is None

    def test_mask_semantics(self, make):
        table = FilterTable(
            [FilterEntry("flag", (FilterTuple(0, 1, 0x10, mask=0x10),))]
        )
        classifier = make(table)
        assert classifier.classify(bytes([0x18]))[0] == "flag"  # 0x18 & 0x10
        assert classifier.classify(bytes([0x08]))[0] is None

    def test_exact_match_without_mask(self, make):
        table = FilterTable([FilterEntry("x", (FilterTuple(0, 2, 0x9900),))])
        classifier = make(table)
        assert classifier.classify(b"\x99\x00rest")[0] == "x"
        assert classifier.classify(b"\x99\x01rest")[0] is None


class TestVarBinding:
    def table(self):
        return FilterTable(
            [
                FilterEntry(
                    "rt1",
                    (
                        FilterTuple(34, 2, 0x6000),
                        FilterTuple(38, 4, VarRef("SeqNo")),
                        FilterTuple(47, 1, 0x10, mask=0x10),
                    ),
                )
            ]
        )

    def test_first_match_binds(self, make):
        classifier = make(self.table())
        name, _ = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=777))
        assert name == "rt1"
        assert classifier.vars == {"SeqNo": 777}

    def test_retransmission_detection(self, make):
        """After binding, only packets with the SAME sequence match —

        which is exactly how the paper's rt filters detect retransmission
        of a specific packet.
        """
        classifier = make(self.table())
        classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=777))
        fresh, _ = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=778))
        assert fresh is None
        again, _ = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=777))
        assert again == "rt1"

    def test_no_binding_on_failed_match(self, make):
        """A tuple failure later in the entry must not leak VAR bindings."""
        table = FilterTable(
            [
                FilterEntry(
                    "picky",
                    (
                        FilterTuple(38, 4, VarRef("SeqNo")),
                        FilterTuple(34, 2, 0x1234),  # will not match
                    ),
                )
            ]
        )
        classifier = make(table)
        name, _ = classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=555))
        assert name is None
        assert classifier.vars == {}

    def test_masked_var_binds_and_compares_under_its_mask(self, make):
        """``(38 4 0xFFFF0000 V)``: the mask applies to the VAR pattern
        too, so a frame equal to the binding under the mask matches."""
        table = FilterTable(
            [
                FilterEntry(
                    "pkt",
                    (
                        FilterTuple(12, 2, 0x0800),
                        FilterTuple(38, 4, VarRef("V"), mask=0xFFFF0000),
                    ),
                )
            ]
        )
        classifier = make(table)
        assert classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=0x12340001)) == ("pkt", 1)
        assert classifier.vars == {"V": 0x12340000}
        assert classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=0x12340002)) == ("pkt", 1)
        assert classifier.classify(tcp_frame(0x6000, 0x4000, FLAG_ACK, seq=0x12350001)) == (None, 1)
