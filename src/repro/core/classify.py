"""Packet classification against the filter and node tables.

Classification reproduces the engine's behaviour exactly as measured in the
paper's Fig 8: a **linear scan** through the packet definitions in script
order, first match wins (§6.1: "the priority of the filter rules is in
descending order of occurrence").  The scan count is returned so the
engine's cost model can charge the per-entry comparison time.

Filter tuples with a VAR pattern bind on first match (node-locally) and
compare for equality afterwards, under the tuple's mask if it has one —
the mechanism behind the paper's retransmission detectors (Fig 2,
``TCP_data_rt1``).

:class:`Classifier` consults a :class:`FilterIndex` compiled from the table
(entries bucketed by their most selective exact tuple; mask/VAR-keyed
entries in an ordered residual chain; each chain generated as one
matcher function) so only entries that *could* match are examined.  The
**result is split from the cost**: it returns the same ``(packet_type,
scanned)`` pair the linear scan would have produced, so the virtual-time
cost model — and the Fig 8 linear-growth reproduction — is unchanged while
the real Python-side work becomes ~O(1) per packet.  The linear scan itself
is the test oracle (``tests/oracles``); see docs/CLASSIFIER.md.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .tables import FilterEntry, FilterTable, FilterTuple, VarRef

#: A bucket/chain element: the entry plus its position in file order.
_Positioned = Tuple[int, FilterEntry]
#: A chain's generated matcher: (classifier, frame) -> (name or None, scanned).
Matcher = Callable[["ClassifierBase", bytes], Tuple[Optional[str], int]]


class ClassifierBase:
    """Shared state and tuple-matching semantics of :class:`Classifier` and
    the test oracles.

    Subclasses implement :meth:`classify`; everything observable — the
    returned ``(name, scanned)`` pair and the VAR bindings — must be
    identical across implementations (enforced by the differential property
    test in ``tests/props/test_props_classify.py``).  What was classified
    and what it cost is counted once, by the engine
    (:class:`repro.core.engine.EngineStats`).
    """

    def __init__(self, filters: FilterTable) -> None:
        self.filters = filters
        #: run-time bindings of the script's VAR declarations (node-local).
        self.vars: Dict[str, int] = {}
        #: entries actually probed by *this* implementation (real work; a
        #: linear scan probes every entry it charges).
        self.entries_examined_total = 0

    def classify(self, data: bytes) -> Tuple[Optional[str], int]:
        """Return (packet type name or None, filter entries scanned)."""
        raise NotImplementedError

    # -- shared matching ----------------------------------------------------

    def _match(self, entry: FilterEntry, data: bytes) -> Optional[Dict[str, int]]:
        """All tuples must match; returns new VAR bindings or None.

        A mask applies to every pattern, a VAR included: the masked field
        is what binds and what later packets must equal.
        """
        new_bindings: Dict[str, int] = {}
        for tup in entry.tuples:
            value = _read_field(data, tup)
            if value is None:
                return None
            mask = tup.mask
            if mask is not None:
                value &= mask
            pattern = tup.pattern
            if isinstance(pattern, VarRef):
                name = pattern.name
                pattern = self.vars.get(name, new_bindings.get(name))
                if pattern is None:
                    new_bindings[name] = value
                    continue
            if value != (pattern if mask is None else pattern & mask):
                return None
        return new_bindings

    def _matched(self, entry: FilterEntry, bindings: Dict[str, int], scanned: int) -> Tuple[str, int]:
        self.vars.update(bindings)
        return entry.name, scanned


# ---------------------------------------------------------------------------
# The compiled decision index
# ---------------------------------------------------------------------------


class FilterIndex:
    """A first-match-preserving decision index over one :class:`FilterTable`.

    Compilation picks one **discriminator field** — the ``(offset, nbytes)``
    pair that appears as an exact (integer, maskless) tuple in the largest
    number of entries (ties broken toward the lowest offset, then the
    narrowest field, for determinism).  Entries carrying such a tuple at
    that field are bucketed by its pattern bytes; every other entry (mask
    or VAR at the discriminator, or no tuple there at all) joins the
    ordered **residual chain**, which must always be considered.

    For each bucket the merged candidate chain (bucket ∪ residual, sorted by
    original entry position) is precomputed, so classification is one slice
    of the frame plus one dict lookup.  Skipping a bucketed entry with
    different discriminator bytes is always sound: its exact tuple compares
    unequal, so the linear scan would have rejected it too.  A frame too
    short for the discriminator slices fewer bytes than any key and gets
    the residual chain, whose entries need no discriminator.

    Each chain runs as one generated **matcher** (:attr:`matchers`, and
    :attr:`residual_matcher`), built the first time a frame selects the
    chain and shared by every classifier of the table
    (:attr:`FilterTable.index`).
    """

    def __init__(self, table: FilterTable) -> None:
        self.size = len(table.entries)
        self.key_field: Optional[Tuple[int, int]] = self._pick_key_field(table.entries)
        offset, nbytes = self.key_field or (0, 0)
        #: the discriminator's bytes of a frame: ``data[index.key]``.
        self.key = slice(offset, offset + nbytes)
        self.residual: List[_Positioned] = []
        buckets: Dict[bytes, List[_Positioned]] = {}
        for position, entry in enumerate(table.entries):
            key = self._key_pattern(entry)
            if key is None:
                self.residual.append((position, entry))
            else:
                buckets.setdefault(key.to_bytes(nbytes, "big"), []).append((position, entry))
        #: discriminator bytes -> merged (bucket + residual) chain in file order.
        self.chains: Dict[bytes, List[_Positioned]] = {
            value: sorted(chain + self.residual) for value, chain in buckets.items()
        }
        #: discriminator bytes -> the chain's matcher (first a :func:`stub`).
        self.matchers: Dict[bytes, Matcher] = {}
        for value, chain in self.chains.items():
            known = (offset, nbytes, int.from_bytes(value, "big"))
            self.matchers[value] = stub(
                functools.partial(_generate_matcher, chain, known, self.size),
                functools.partial(self.matchers.__setitem__, value),
            )
        self.residual_matcher: Matcher = stub(
            functools.partial(_generate_matcher, self.residual, None, self.size),
            functools.partial(setattr, self, "residual_matcher"),
        )

    @staticmethod
    def _pick_key_field(entries: Sequence[FilterEntry]) -> Optional[Tuple[int, int]]:
        counts: Dict[Tuple[int, int], int] = {}
        for entry in entries:
            for field in {
                (tup.offset, tup.nbytes)
                for tup in entry.tuples
                if tup.mask is None and isinstance(tup.pattern, int)
            }:
                counts[field] = counts.get(field, 0) + 1
        if not counts:
            return None
        return min(counts, key=lambda f: (-counts[f], f[0], f[1]))

    def _key_pattern(self, entry: FilterEntry) -> Optional[int]:
        """The entry's exact pattern at the discriminator field, if any."""
        if self.key_field is None:
            return None
        for tup in entry.tuples:
            if (
                (tup.offset, tup.nbytes) == self.key_field
                and tup.mask is None
                and isinstance(tup.pattern, int)
            ):
                return tup.pattern
        return None

    def chain_for(self, data: bytes) -> List[_Positioned]:
        """The candidate entries for *data*, in file order."""
        return self.chains.get(data[self.key], self.residual)


# ---------------------------------------------------------------------------
# The generated matcher
# ---------------------------------------------------------------------------


def define(source: str, namespace: dict) -> dict:
    """Run generated *source* with *namespace* as its only globals (the
    one ``exec`` behind the classifier's matchers and the run-time's
    kernels)."""
    exec(compile(source, "<generated FIE code>", "exec"), namespace)
    return namespace


def int_literal(value: int) -> str:
    """An int as source text (anything else cannot reach generated code)."""
    if type(value) is not int:
        raise TypeError(f"generated code takes ints only, got {value!r}")
    return str(value)


def stub(generate: Callable[[], Callable], install: Callable[[Callable], None]) -> Callable:
    """A stand-in that, on its first call, generates the real function,
    installs it in the stand-in's place and runs it: only what traffic
    reaches is ever compiled."""

    def first_call(*args):
        function = generate()
        install(function)
        return function(*args)

    return first_call


def _generate_matcher(
    chain: Sequence[_Positioned], known: Optional[Tuple[int, int, int]], size: int
) -> Matcher:
    """One chain as a function ``(classifier, data) -> (name, scanned)``.

    Entries are tried in file order, each as one ``and`` of its tuples: an
    exact tuple compares a slice of the frame with constant bytes (a slice
    cut short by the frame's end compares unequal), a masked one reads an
    int under its mask once the frame is long enough.  *known* is the
    discriminator compare ``(offset, nbytes, pattern)`` that selected the
    chain, left out wherever it recurs.  VAR-bearing entries keep the
    interpreted :meth:`ClassifierBase._match`, where binding order and
    first-match equality semantics live.  ``entries_examined_total``
    grows by the entries tried, as a walk of the chain would.

    The source holds only ints, bools, None and operators; the constant
    bytes, entries and results are bound through the ``exec`` namespace.
    """
    namespace: Dict[str, object] = {
        "from_bytes": int.from_bytes, "BIG": "big", "MISS": (None, size)
    }
    constants: Dict[bytes, str] = {}
    body: List[str] = []
    reads_length = False
    for examined, (position, entry) in enumerate(chain, 1):
        scanned = int_literal(position + 1)
        found = [f"    c.entries_examined_total += {int_literal(examined)}"]
        if any(isinstance(tup.pattern, VarRef) for tup in entry.tuples):
            namespace[f"E{examined}"] = entry
            body += [f"b = c._match(E{examined}, data)", "if b is not None:"]
            body += found + [f"    return c._matched(E{examined}, b, {scanned})"]
            continue
        tests = []
        for tup in entry.tuples:
            offset, end = int_literal(tup.offset), int_literal(tup.offset + tup.nbytes)
            if tup.mask is None:
                if (tup.offset, tup.nbytes, tup.pattern) == known:
                    continue
                pattern = tup.pattern.to_bytes(tup.nbytes, "big")
                name = constants.setdefault(pattern, f"K{len(constants)}")
                namespace[name] = pattern
                tests.append(f"data[{offset}:{end}] == {name}")
            else:
                reads_length = True
                mask, masked = int_literal(tup.mask), int_literal(tup.pattern & tup.mask)
                if tup.nbytes == 1:
                    tests.append(f"(n > {offset} and data[{offset}] & {mask} == {masked})")
                else:
                    value = f"from_bytes(data[{offset}:{end}], BIG)"
                    tests.append(f"(n >= {end} and {value} & {mask} == {masked})")
        namespace[f"R{examined}"] = (entry.name, position + 1)
        body += [f"if {' and '.join(tests) or True}:"] + found + [f"    return R{examined}"]
    if chain:
        body.append(f"c.entries_examined_total += {int_literal(len(chain))}")
    body.append("return MISS")
    if reads_length:
        body.insert(0, "n = len(data)")
    source = "def match(c, data):\n" + "\n".join(f"    {line}" for line in body)
    return define(source, namespace)["match"]


class Classifier(ClassifierBase):
    """Index-pruned candidates matched by generated code.

    Observationally identical to a linear scan in file order — same winner,
    same VAR bindings, and the same *scanned* count (the linear-equivalent
    position of the winner, or the full table size on a miss) so the
    engine's virtual-time cost model still charges the paper's linear
    scan.  Only ``entries_examined_total`` — the real Python-side work —
    differs.  Classification is one slice, one dict lookup and one call of
    the selected chain's matcher (see :class:`FilterIndex`).
    """

    def __init__(self, filters: FilterTable) -> None:
        super().__init__(filters)
        self._index = filters.index

    def classify(self, data: bytes) -> Tuple[Optional[str], int]:
        index = self._index
        return index.matchers.get(data[index.key], index.residual_matcher)(self, data)


def _read_field(data: bytes, tup: FilterTuple) -> Optional[int]:
    end = tup.offset + tup.nbytes
    if end > len(data):
        return None
    return int.from_bytes(data[tup.offset : end], "big")
