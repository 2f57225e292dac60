"""Construction-time validation of the filter table.

A filter tuple whose read reaches past any plausible frame, or whose mask
is wider than the field it masks, can never match real traffic — accepting
it silently produces a scenario that tests nothing.  Both are rejected at
construction with a :class:`TableError` (a :class:`FslCompileError`
subclass, so script-compilation callers keep catching one type).
"""

import pytest

from repro.core.classify import Classifier
from repro.core.fsl import compile_text
from repro.core.tables import (
    MAX_FILTER_REACH,
    FilterEntry,
    FilterTable,
    FilterTuple,
)
from repro.errors import FslCompileError, TableError
from repro.scripts import canonical_node_table, tcp_congestion_script


class TestTupleReach:
    def test_huge_offset_rejected(self):
        with pytest.raises(TableError, match="reads past any plausible frame"):
            FilterTuple(1_000_000, 4, 1)

    def test_offset_plus_width_just_past_limit_rejected(self):
        with pytest.raises(TableError):
            FilterTuple(MAX_FILTER_REACH - 1, 2, 0)

    def test_reach_exactly_at_limit_accepted(self):
        tup = FilterTuple(MAX_FILTER_REACH - 2, 2, 0)
        assert tup.offset + tup.nbytes == MAX_FILTER_REACH

    def test_table_construction_rejects_out_of_reach_entry(self):
        with pytest.raises(TableError):
            FilterTable(
                [FilterEntry("deep", (FilterTuple(MAX_FILTER_REACH, 4, 1),))]
            )

    def test_table_error_is_a_compile_error(self):
        with pytest.raises(FslCompileError):
            FilterTuple(MAX_FILTER_REACH, 4, 1)


class TestMaskWidth:
    def test_mask_wider_than_field_rejected(self):
        with pytest.raises(TableError, match="does not fit"):
            FilterTuple(0, 1, 0x10, mask=0x1FF)

    def test_negative_mask_rejected(self):
        with pytest.raises(TableError):
            FilterTuple(0, 2, 0x10, mask=-1)

    def test_full_width_mask_accepted(self):
        assert FilterTuple(0, 1, 0x10, mask=0xFF).mask == 0xFF

    def test_table_construction_rejects_wide_mask(self):
        with pytest.raises(TableError):
            FilterTable(
                [FilterEntry("bad", (FilterTuple(0, 2, 1, mask=0x10000),))]
            )

    def test_non_entry_rejected_by_table(self):
        with pytest.raises(TableError, match="must be a FilterEntry"):
            FilterTable(["not-an-entry"])


class TestIndexInvalidation:
    """Nothing invalidates an index: a table's entries are fixed at
    construction, so its index is built once and shared."""

    def table(self):
        return FilterTable(
            [
                FilterEntry("a", (FilterTuple(0, 2, 0x0800),)),
                FilterEntry("b", (FilterTuple(0, 2, 0x0806),)),
            ]
        )

    def test_entries_are_a_tuple_and_table_has_no_append(self):
        table = self.table()
        assert isinstance(table.entries, tuple)
        assert not hasattr(table, "append")

    def test_classifiers_of_one_table_share_index_and_programs(self):
        table = self.table()
        index = Classifier(table)._index
        assert Classifier(table)._index is index  # a second engine install compiles nothing
        assert table.index is index
        assert len(index.programs) == index.size == 2

    def test_classifiers_of_one_compiled_program_share_one_index(self):
        program = compile_text(tcp_congestion_script(canonical_node_table(2)))
        assert "index" in vars(program.filters)  # built by the compiler
        first, second = Classifier(program.filters), Classifier(program.filters)
        assert first._index is second._index is program.filters.index

    def test_restricted_table_gets_fresh_index(self):
        table = self.table()
        restricted = table.restricted_to({"b"})
        assert restricted.index is not table.index
        assert restricted.index.size == 1
        assert Classifier(restricted).classify((0x0806).to_bytes(2, "big")) == ("b", 1)
