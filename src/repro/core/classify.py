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
entries in an ordered residual chain, each entry flattened into a
match-program) so only entries that *could* match are examined.  The
**result is split from the cost**: it returns the same ``(packet_type,
scanned)`` pair the linear scan would have produced, so the virtual-time
cost model — and the Fig 8 linear-growth reproduction — is unchanged while
the real Python-side work becomes ~O(1) per packet.  The linear scan itself
is the test oracle (``tests/oracles``); see docs/CLASSIFIER.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .tables import FilterEntry, FilterTable, FilterTuple, VarRef

#: A bucket/chain element: the entry plus its position in file order.
_Positioned = Tuple[int, FilterEntry]


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
    that field are bucketed by its pattern value; every other entry (mask
    or VAR at the discriminator, or no tuple there at all) joins the
    ordered **residual chain**, which must always be considered.

    For each bucket value the merged candidate chain (bucket ∪ residual,
    sorted by original entry position) is precomputed, so classification is
    one field read plus one dict lookup plus a walk over a — typically
    tiny — chain.  Skipping a bucketed entry with a different discriminator
    value is always sound: its exact tuple compares unequal, so the linear
    scan would have rejected it too.

    :attr:`programs` holds each entry's flattened match-program by file
    position, so index and programs are one artefact per table
    (:attr:`FilterTable.index`).
    """

    def __init__(self, table: FilterTable) -> None:
        self.size = len(table.entries)
        self.programs = [_compile_entry(entry) for entry in table.entries]
        self.key_field: Optional[Tuple[int, int]] = self._pick_key_field(table.entries)
        self.residual: List[_Positioned] = []
        buckets: Dict[int, List[_Positioned]] = {}
        for position, entry in enumerate(table.entries):
            key = self._key_pattern(entry)
            if key is None:
                self.residual.append((position, entry))
            else:
                buckets.setdefault(key, []).append((position, entry))
        #: value -> merged (bucket + residual) chain in file order.
        self.chains: Dict[int, List[_Positioned]] = {
            value: sorted(chain + self.residual) for value, chain in buckets.items()
        }
        if self.key_field is not None:
            self._key_offset, key_nbytes = self.key_field
            self._key_end = self._key_offset + key_nbytes
        else:
            self._key_offset = self._key_end = 0

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
        if self.key_field is None:
            return self.residual
        if self._key_end > len(data):
            # Truncated frame: no bucketed entry can match (its
            # discriminator read fails), so only the residual remains.
            return self.residual
        value = int.from_bytes(data[self._key_offset : self._key_end], "big")
        return self.chains.get(value, self.residual)


# ---------------------------------------------------------------------------
# The flattened match-program
# ---------------------------------------------------------------------------

#: One flattened op: (offset, end, mask, pattern).  mask is None for an
#: exact compare; for masked compares the pattern is stored pre-masked.
_MatchOp = Tuple[int, int, Optional[int], int]


def _compile_entry(entry: FilterEntry) -> Optional[Tuple[_MatchOp, ...]]:
    """Flatten one entry into a tuple of match ops, or None if it binds VARs.

    VAR-bearing entries keep the interpreted :meth:`ClassifierBase._match`
    path — binding order and first-match equality semantics live there —
    so the bytecode only covers the (overwhelmingly common) exact and
    masked tuples, where a plain predicate loop suffices.
    """
    ops: List[_MatchOp] = []
    for tup in entry.tuples:
        if isinstance(tup.pattern, VarRef):
            return None
        if tup.mask is not None:
            ops.append((tup.offset, tup.offset + tup.nbytes, tup.mask, tup.pattern & tup.mask))
        else:
            ops.append((tup.offset, tup.offset + tup.nbytes, None, tup.pattern))
    return tuple(ops)


class Classifier(ClassifierBase):
    """Index-pruned candidates matched by flattened match-programs.

    Observationally identical to a linear scan in file order — same winner,
    same VAR bindings, and the same *scanned* count (the linear-equivalent
    position of the winner, or the full table size on a miss) so the
    engine's virtual-time cost model still charges the paper's linear
    scan.  Only ``entries_examined_total`` — the real Python-side work —
    differs.  Each non-VAR entry is a tuple of ``(offset, end, mask,
    pattern)`` ops evaluated in a tight local loop — no
    :class:`FilterTuple` attribute access, no ``isinstance`` checks, and no
    per-attempt bindings dict; entries with VAR patterns go through the
    shared interpreted matcher.
    """

    def __init__(self, filters: FilterTable) -> None:
        super().__init__(filters)
        self._index = filters.index

    def classify(self, data: bytes) -> Tuple[Optional[str], int]:
        index = self._index
        programs = index.programs
        n = len(data)
        for position, entry in index.chain_for(data):
            self.entries_examined_total += 1
            ops = programs[position]
            if ops is None:  # VAR entry: interpreted semantics
                bindings = self._match(entry, data)
                if bindings is not None:
                    return self._matched(entry, bindings, position + 1)
                continue
            for offset, end, mask, pattern in ops:
                if end > n:
                    break
                value = int.from_bytes(data[offset:end], "big")
                if (value != pattern) if mask is None else (value & mask != pattern):
                    break
            else:
                return entry.name, position + 1
        return None, index.size


def _read_field(data: bytes, tup: FilterTuple) -> Optional[int]:
    end = tup.offset + tup.nbytes
    if end > len(data):
        return None
    return int.from_bytes(data[tup.offset : end], "big")
