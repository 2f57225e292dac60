"""Differential property test: production Classifier ≡ linear scan.

The production classifier (repro.core.classify: index + match programs)
and the index walk without programs (tests/oracles) must be
observationally identical to the paper-faithful linear scan: same winning
packet type, same *scanned* count (the cost model's linear-equivalent
charge), same VAR bindings — including stateful multi-packet sequences
where an early packet binds a VAR that later packets must equal.  Random
filter tables exercise masks, VAR patterns (masked ones too), overlapping
entries and tuples that read past the frame.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import Classifier
from repro.core.tables import FilterEntry, FilterTable, FilterTuple, VarRef
from tests.oracles.classifiers import IndexedClassifier, LinearClassifier

#: both index-pruned implementations must shadow the linear reference.
FAST_KINDS = (IndexedClassifier, Classifier)

VAR_NAMES = ("SeqA", "SeqB", "SeqC")
WIDTHS = (1, 2, 4)
MAX_OFFSET = 48
MAX_FRAME = 64


@st.composite
def filter_tuples(draw):
    offset = draw(st.integers(min_value=0, max_value=MAX_OFFSET))
    nbytes = draw(st.sampled_from(WIDTHS))
    limit = 1 << (8 * nbytes)
    kind = draw(st.sampled_from(["exact", "exact", "masked", "var", "masked-var"]))
    # Mostly small pattern and mask pools: collisions between entries create
    # the overlapping-definition cases where first-match priority matters.
    # The rest span the whole field, so every byte of a compare is exercised
    # and a masked pattern may carry bits outside its mask.
    values = st.one_of(
        st.integers(min_value=0, max_value=min(limit - 1, 7)),
        st.integers(min_value=0, max_value=limit - 1),
    )
    mask = draw(values) if kind.startswith("masked") else None
    if kind.endswith("var"):
        return FilterTuple(offset, nbytes, VarRef(draw(st.sampled_from(VAR_NAMES))), mask=mask)
    return FilterTuple(offset, nbytes, draw(values), mask=mask)


@st.composite
def filter_tables(draw):
    n_entries = draw(st.integers(min_value=1, max_value=10))
    entries = []
    for i in range(n_entries):
        tuples = tuple(
            draw(st.lists(filter_tuples(), min_size=1, max_size=3))
        )
        entries.append(FilterEntry(f"pkt{i}", tuples))
    return FilterTable(entries)


@st.composite
def frames_for(draw, table):
    """A frame: random bytes, sometimes steered to satisfy a random entry.

    Steering writes each exact/masked tuple's pattern bytes at its offset
    (VAR tuples are left as-is, so first-match binding and later equality
    checks both occur across a sequence); lengths below the largest offset
    produce the truncated-read cases.
    """
    length = draw(st.integers(min_value=0, max_value=MAX_FRAME))
    frame = bytearray(draw(st.binary(min_size=length, max_size=length)))
    if draw(st.booleans()):
        entry = draw(st.sampled_from(table.entries))
        for tup in entry.tuples:
            end = tup.offset + tup.nbytes
            if end > len(frame) or isinstance(tup.pattern, VarRef):
                continue
            frame[tup.offset : end] = tup.pattern.to_bytes(tup.nbytes, "big")
    return bytes(frame)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_fast_classifiers_match_linear_reference(data):
    table = data.draw(filter_tables())
    linear = LinearClassifier(table)
    fasts = [cls(table) for cls in FAST_KINDS]
    n_packets = data.draw(st.integers(min_value=1, max_value=8))
    for _ in range(n_packets):
        frame = data.draw(frames_for(table))
        expected = linear.classify(frame)
        for fast in fasts:
            assert fast.classify(frame) == expected
            assert fast.vars == linear.vars
    for fast in fasts:
        # The fast paths may not examine MORE entries than the linear scan.
        assert fast.entries_examined_total <= linear.entries_examined_total


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_candidate_chains_are_sound_and_ordered(data):
    """Every chain the index can yield is position-sorted, and any entry

    excluded from a frame's chain is one the linear scan would reject.
    """
    table = data.draw(filter_tables())
    index = table.index
    for chain in list(index.chains.values()) + [index.residual]:
        positions = [position for position, _ in chain]
        assert positions == sorted(positions)
    frame = data.draw(frames_for(table))
    chain_positions = {position for position, _ in index.chain_for(frame)}
    reference = LinearClassifier(table)
    for position, entry in enumerate(table.entries):
        if position not in chain_positions:
            assert reference._match(entry, frame) is None


def test_var_bind_then_match_sequence_is_identical():
    """Deterministic pin of the paper's retransmission-detector pattern:

    packet 1 binds the VAR, packet 2 (different value) must miss, packet 3
    (same value) must hit — identically on both implementations.
    """
    table = FilterTable(
        [
            FilterEntry(
                "rt1",
                (
                    FilterTuple(0, 2, 0x6000),
                    FilterTuple(4, 4, VarRef("SeqNo")),
                ),
            ),
            FilterEntry("fallback", (FilterTuple(0, 2, 0x6000),)),
        ]
    )
    linear = LinearClassifier(table)
    fasts = [cls(table) for cls in FAST_KINDS]

    def frame(seq):
        return (0x6000).to_bytes(2, "big") + b"\x00\x00" + seq.to_bytes(4, "big")

    for packet in (frame(777), frame(778), frame(777), frame(9)):
        expected = linear.classify(packet)
        for fast in fasts:
            assert fast.classify(packet) == expected
            assert fast.vars == linear.vars
    assert linear.vars == {"SeqNo": 777}


def _agree_on(table, frames):
    linear = LinearClassifier(table)
    fasts = [cls(table) for cls in FAST_KINDS]
    for frame in frames:
        expected = linear.classify(frame)
        for fast in fasts:
            assert fast.classify(frame) == expected, frame.hex()
            assert fast.vars == linear.vars
    return linear


def test_masked_patterns_wider_than_their_field():
    """A masked pattern's bits outside its mask never take part: the frame
    compares under the mask with the pattern under the same mask."""
    table = FilterTable(
        [
            FilterEntry("low", (FilterTuple(12, 2, 0xFF08, mask=0x00FF),)),
            FilterEntry("wide", (FilterTuple(14, 4, 0xFFFFFFFF, mask=0x0F0000F0),)),
            FilterEntry("key", (FilterTuple(12, 2, 0x0800), FilterTuple(20, 1, 0xF5, mask=0x0F))),
        ]
    )
    frames = []
    for high in (0x00, 0x08, 0xFF):
        for tail in (bytes(6), b"\x0f\x00\x00\xf0\x05\x00", b"\xff" * 6):
            frames.append(bytes(12) + bytes([high, 0x08]) + tail)
            frames.append(bytes(12) + bytes([0x08, 0x00]) + tail + b"\x05")
    linear = _agree_on(table, frames)
    assert linear.classify(bytes(12) + b"\x00\x08") == ("low", 1)
    assert linear.classify(bytes(12) + b"\x08\x00" + b"\x0f\x00\x00\xf0") == ("wide", 2)


def test_frames_shorter_than_the_discriminator():
    """A frame that ends before the discriminator field selects the residual
    chain, and a tuple reading past the frame's end fails its entry only."""
    table = FilterTable(
        [
            FilterEntry("deep_a", (FilterTuple(40, 2, 0x0800),)),
            FilterEntry("deep_b", (FilterTuple(40, 2, 0x0806),)),
            FilterEntry("masked", (FilterTuple(6, 2, 0x0100, mask=0xFF00),)),
            FilterEntry("short", (FilterTuple(2, 1, 1),)),
        ]
    )
    assert table.index.key_field == (40, 2)
    body = bytes([0, 0, 1, 0, 0, 0, 1, 0]) + bytes(32) + b"\x08\x00"
    frames = [body[:length] for length in range(len(body) + 1)]
    _agree_on(table, frames)
    assert Classifier(table).classify(body[:8]) == ("masked", 3)
    assert Classifier(table).classify(body[:7]) == ("short", 4)
    assert Classifier(table).classify(body) == ("deep_a", 1)
