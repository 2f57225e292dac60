"""The six tables of the VirtualWire engine (paper §5.1, Fig 3).

The FSL compiler turns a script into one :class:`CompiledProgram` holding:

* **filter table** — ordered packet definitions (first match wins, §6.1);
* **node table** — hostname → (MAC, IP);
* **counter table** — event counters and node-local variables, each with a
  home node and the term ids its changes must re-evaluate;
* **term table** — boolean relations between two counters or a counter and
  a constant, with the condition ids each term feeds;
* **condition table** — logical expressions over terms, with the
  (node, action) pairs to trigger when satisfied;
* **action table** — fault injections and counter manipulations.

Exactly as in the paper, the *entire* program is shipped to every node even
though each node touches only a subset of the entries.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import FslCompileError, TableError
from ..net.addresses import IpAddress, MacAddress

# ---------------------------------------------------------------------------
# Filter table
# ---------------------------------------------------------------------------

#: Largest plausible frame a filter tuple may read from: a jumbo Ethernet
#: frame (9000-byte payload + 14-byte header + 4-byte FCS).  A tuple whose
#: ``offset + nbytes`` exceeds this can never match real traffic and is a
#: script bug, so it is rejected at construction instead of silently
#: classifying nothing.
MAX_FILTER_REACH = 9018


@dataclass(frozen=True)
class VarRef:
    """A run-time-bound variable appearing as a filter pattern (paper Fig 2:

    ``(38 4 SeqNoData)``).  The first matching packet binds the variable to
    the bytes at the tuple's offset; later packets must carry equal bytes.
    """

    name: str


@dataclass(frozen=True)
class FilterTuple:
    """One (offset, nbytes, [mask], pattern) component of a packet definition."""

    offset: int
    nbytes: int
    pattern: Union[int, VarRef]
    mask: Optional[int] = None

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise FslCompileError(f"negative filter offset {self.offset}")
        if self.nbytes not in (1, 2, 4, 6, 8):
            raise FslCompileError(f"unsupported filter width {self.nbytes}")
        if self.offset + self.nbytes > MAX_FILTER_REACH:
            raise TableError(
                f"filter tuple ({self.offset} {self.nbytes}) reads past any "
                f"plausible frame (limit {MAX_FILTER_REACH} bytes)"
            )
        limit = 1 << (8 * self.nbytes)
        if isinstance(self.pattern, int) and not 0 <= self.pattern < limit:
            raise FslCompileError(
                f"pattern {self.pattern:#x} does not fit in {self.nbytes} bytes"
            )
        if self.mask is not None and not 0 <= self.mask < limit:
            raise TableError(
                f"mask {self.mask:#x} does not fit the {self.nbytes}-byte field"
            )


@dataclass(frozen=True)
class FilterEntry:
    """A named packet definition: the AND of its tuples."""

    name: str
    tuples: Tuple[FilterTuple, ...]


def _validate_entry(entry: FilterEntry) -> None:
    """Re-run every tuple's construction-time checks for a table entry.

    ``FilterTuple.__post_init__`` already rejects invalid tuples, but the
    table cannot assume its entries came through the normal constructor
    (deserialisation, ``dataclasses.replace`` tricks), so it re-validates.
    """
    if not isinstance(entry, FilterEntry):
        raise TableError(f"filter table entry must be a FilterEntry, got {entry!r}")
    for tup in entry.tuples:
        tup.__post_init__()


class FilterTable:
    """Ordered packet definitions; classification takes the first match.

    Tuples are validated at construction (:class:`FilterTuple` rejects
    out-of-frame reads and oversized masks with a :class:`TableError`),
    and the table re-checks every entry it is handed so a table can never
    hold an invalid definition.  The entries are fixed at construction,
    as the compiled program the paper ships is (§5.1).
    """

    def __init__(self, entries: Sequence[FilterEntry] = ()) -> None:
        self.entries: Tuple[FilterEntry, ...] = tuple(entries)
        for entry in self.entries:
            _validate_entry(entry)
        self._by_name = {e.name: e for e in self.entries}
        if len(self._by_name) != len(self.entries):
            raise FslCompileError("duplicate packet definition name")

    @functools.cached_property
    def index(self):
        """The classification index (:class:`repro.core.classify.FilterIndex`),
        built on first use and shared by every classifier of this table."""
        from .classify import FilterIndex

        return FilterIndex(self)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> FilterEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise FslCompileError(f"unknown packet type {name!r}") from None

    def restricted_to(self, names: Set[str]) -> "FilterTable":
        """The table pruned to *names*, preserving order.

        A scenario activates only the packet definitions it references;
        without pruning, earlier unrelated definitions (like the
        retransmission filters in the paper's Fig 2) would steal the
        first-match classification.
        """
        return FilterTable([e for e in self.entries if e.name in names])


# ---------------------------------------------------------------------------
# Node table
# ---------------------------------------------------------------------------


#: what a truncated frame's missing address reads as.
_ZERO_MAC = b"\x00" * 6


@dataclass(frozen=True)
class NodeEntry:
    name: str
    mac: MacAddress
    ip: IpAddress


class NodeTable:
    """hostname → hardware/IP address mapping (paper Fig 2)."""

    def __init__(self, entries: Sequence[NodeEntry] = ()) -> None:
        self.entries: List[NodeEntry] = list(entries)
        self._by_name = {e.name: e for e in self.entries}
        self._by_mac = {e.mac: e for e in self.entries}
        #: packed-bytes key: a frame's address slice looks its node up
        #: without constructing a MacAddress.
        self._by_mac_bytes = {bytes(e.mac.packed): e for e in self.entries}
        #: (source name, destination name) keyed by the 12 header bytes
        #: ``dst + src`` of a frame between two nodes: the engine names a
        #: frame's endpoints with one slice and one probe.  Filled here with
        #: exactly |nodes|² entries, never from the wire.
        self._names_by_header = {
            bytes(dst.mac.packed) + bytes(src.mac.packed): (src.name, dst.name)
            for dst in self.entries
            for src in self.entries
        }
        if len(self._by_name) != len(self.entries):
            raise FslCompileError("duplicate node name in NODE_TABLE")

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> NodeEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise FslCompileError(f"unknown node {name!r}") from None

    def by_mac(self, mac: MacAddress) -> Optional[NodeEntry]:
        return self._by_mac.get(mac)

    def by_mac_bytes(self, packed: bytes) -> Optional[NodeEntry]:
        """Entry for a raw 6-byte MAC slice."""
        return self._by_mac_bytes.get(packed)

    def endpoint_names(self, frame: bytes) -> Tuple[Optional[str], Optional[str]]:
        """(source, destination) node names of a frame, ``None`` for an
        address outside the table; an address a truncated frame lacks reads
        as the all-zero MAC."""
        names = self._names_by_header.get(frame[:12])
        if names is None:
            src = self._by_mac_bytes.get(frame[6:12] if len(frame) >= 12 else _ZERO_MAC)
            dst = self._by_mac_bytes.get(frame[0:6] if len(frame) >= 6 else _ZERO_MAC)
            names = (src.name if src else None, dst.name if dst else None)
        return names

    def names(self) -> List[str]:
        return [e.name for e in self.entries]


# ---------------------------------------------------------------------------
# Counter table
# ---------------------------------------------------------------------------


class Direction(enum.Enum):
    SEND = "SEND"
    RECV = "RECV"


class CounterKind(enum.Enum):
    EVENT = "event"  # counts send/receive events of a packet type
    LOCAL = "local"  # an explicitly manipulated variable on one node


@dataclass
class CounterSpec:
    """One entry of the counter table."""

    counter_id: int
    name: str
    kind: CounterKind
    home_node: str
    #: EVENT counters only: what to count.
    pkt_type: Optional[str] = None
    src_node: Optional[str] = None
    dst_node: Optional[str] = None
    direction: Optional[Direction] = None
    #: True when the counter is armed at scenario start (a counter that is
    #: never the target of ENABLE_CNTR starts enabled; see DESIGN.md §2.3).
    initially_enabled: bool = True
    #: term ids whose value may change when this counter changes.
    term_ids: List[int] = field(default_factory=list)
    #: nodes that need COUNTER_UPDATE control frames on change.
    mirror_subscribers: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Term table
# ---------------------------------------------------------------------------


class RelOp(enum.Enum):
    GT = ">"
    LT = "<"
    GE = ">="
    LE = "<="
    EQ = "="
    NE = "!="


@dataclass(frozen=True)
class Operand:
    """A term operand: either a counter reference or an integer constant."""

    counter_id: Optional[int] = None
    constant: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.counter_id is None) == (self.constant is None):
            raise FslCompileError("operand must be a counter or a constant")

    @property
    def is_counter(self) -> bool:
        return self.counter_id is not None


class TermMode(enum.Enum):
    #: counter-vs-constant: evaluated at the counter's home node, status
    #: broadcast to remote consumers only when it flips (paper §5.2).
    LOCAL_BROADCAST = "local-broadcast"
    #: counter-vs-counter: consumers mirror both counter values and
    #: evaluate locally (the paper's "value sent to the other node" case).
    MIRROR = "mirror"


@dataclass
class TermSpec:
    term_id: int
    lhs: Operand
    op: RelOp
    rhs: Operand
    mode: TermMode = TermMode.LOCAL_BROADCAST
    #: the node that owns evaluation in LOCAL_BROADCAST mode.
    home_node: str = ""
    #: nodes that evaluate conditions over this term.
    consumer_nodes: Set[str] = field(default_factory=set)
    condition_ids: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Condition table
# ---------------------------------------------------------------------------


class ConditionExpr:
    """Expression tree node: TERM leaf or AND/OR/NOT internal node."""

    __slots__ = ("op", "term_id", "children")

    def __init__(self, op: str, term_id: int = -1, children: Sequence["ConditionExpr"] = ()) -> None:
        if op not in ("TERM", "AND", "OR", "NOT", "TRUE"):
            raise FslCompileError(f"bad condition operator {op!r}")
        self.op = op
        self.term_id = term_id
        self.children = list(children)

    def __repr__(self) -> str:
        if self.op == "TRUE":
            return "TRUE"
        if self.op == "TERM":
            return f"T{self.term_id}"
        inner = ", ".join(repr(c) for c in self.children)
        return f"{self.op}({inner})"

    def term_ids(self) -> List[int]:
        """All term ids referenced, in first-appearance order."""
        if self.op == "TERM":
            return [self.term_id]
        seen: List[int] = []
        for child in self.children:
            for tid in child.term_ids():
                if tid not in seen:
                    seen.append(tid)
        return seen

    def evaluate(self, term_values: Dict[int, bool]) -> bool:
        if self.op == "TRUE":
            return True
        if self.op == "TERM":
            return term_values.get(self.term_id, False)
        if self.op == "NOT":
            return not self.children[0].evaluate(term_values)
        if self.op == "AND":
            return all(c.evaluate(term_values) for c in self.children)
        return any(c.evaluate(term_values) for c in self.children)


@dataclass
class ConditionSpec:
    condition_id: int
    expr: ConditionExpr
    #: actions to trigger, as (node, action_id), in script order.
    triggers: List[Tuple[str, int]] = field(default_factory=list)
    #: True for the special (TRUE) initialisation rules.
    is_true_rule: bool = False
    #: source line, for error reports.
    line: int = 0

    def nodes(self) -> Set[str]:
        return {node for node, _ in self.triggers}


# ---------------------------------------------------------------------------
# Action table
# ---------------------------------------------------------------------------


class ActionKind(enum.Enum):
    # Counter manipulation (paper Table I).
    ASSIGN_CNTR = "ASSIGN_CNTR"
    ENABLE_CNTR = "ENABLE_CNTR"
    DISABLE_CNTR = "DISABLE_CNTR"
    INCR_CNTR = "INCR_CNTR"
    DECR_CNTR = "DECR_CNTR"
    RESET_CNTR = "RESET_CNTR"
    SET_CURTIME = "SET_CURTIME"
    ELAPSED_TIME = "ELAPSED_TIME"
    # Fault injection / scenario control (paper Table II).
    DROP = "DROP"
    DELAY = "DELAY"
    REORDER = "REORDER"
    DUP = "DUP"
    MODIFY = "MODIFY"
    FAIL = "FAIL"
    CRASH = "CRASH"
    RESTART = "RESTART"
    STOP = "STOP"
    FLAG_ERROR = "FLAG_ERROR"


#: Fault kinds that apply to packets crossing the engine.
PACKET_FAULTS = {
    ActionKind.DROP,
    ActionKind.DELAY,
    ActionKind.REORDER,
    ActionKind.DUP,
    ActionKind.MODIFY,
}

#: Counter-manipulation kinds.
COUNTER_ACTIONS = {
    ActionKind.ASSIGN_CNTR,
    ActionKind.ENABLE_CNTR,
    ActionKind.DISABLE_CNTR,
    ActionKind.INCR_CNTR,
    ActionKind.DECR_CNTR,
    ActionKind.RESET_CNTR,
    ActionKind.SET_CURTIME,
    ActionKind.ELAPSED_TIME,
}


@dataclass
class ActionSpec:
    action_id: int
    kind: ActionKind
    #: node where the action executes.
    node: str
    #: counter actions.
    counter_id: Optional[int] = None
    value: int = 0
    #: packet faults: what to match.
    pkt_type: Optional[str] = None
    src_node: Optional[str] = None
    dst_node: Optional[str] = None
    direction: Optional[Direction] = None
    #: DELAY: duration in ns (jiffy-quantised at execution time).
    delay_ns: int = 0
    #: REORDER: how many packets to buffer and the release permutation
    #: (1-based indices; empty means "reverse").
    reorder_count: int = 0
    reorder_order: Tuple[int, ...] = ()
    #: MODIFY: explicit patches as (offset, bytes); empty means "random".
    patches: Tuple[Tuple[int, bytes], ...] = ()
    #: FAIL/CRASH: the node to crash (also stored in .node).
    #: RESTART: the crashed node to reboot.  Stored separately from .node
    #: because the action *executes* at the rule's home node (the crashed
    #: node cannot run its own restart), ``delay_ns`` carrying the boot
    #: delay.
    target_node: Optional[str] = None
    #: the condition this action belongs to (filled by the compiler).
    condition_id: int = -1

    @property
    def is_packet_fault(self) -> bool:
        return self.kind in PACKET_FAULTS

    @property
    def is_counter_action(self) -> bool:
        return self.kind in COUNTER_ACTIONS


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Everything a node's FIE/FAE needs, produced by the FSL compiler."""

    scenario_name: str
    #: inactivity window in ns; 0 means "no declared timeout" (ending by
    #: quiescence is then a normal end rather than a failure).
    timeout_ns: int
    filters: FilterTable
    nodes: NodeTable
    counters: List[CounterSpec]
    terms: List[TermSpec]
    conditions: List[ConditionSpec]
    actions: List[ActionSpec]
    #: names of VAR declarations used by filter tuples.
    variables: Tuple[str, ...] = ()

    def counter_by_name(self, name: str) -> CounterSpec:
        for spec in self.counters:
            if spec.name == name:
                return spec
        raise FslCompileError(f"unknown counter {name!r}")

    def table_sizes(self) -> Dict[str, int]:
        """Entry counts per table (for INIT control frames and reports)."""
        return {
            "filters": len(self.filters),
            "nodes": len(self.nodes),
            "counters": len(self.counters),
            "terms": len(self.terms),
            "conditions": len(self.conditions),
            "actions": len(self.actions),
        }

    def _canonical_rendering(self) -> bytes:
        """All six tables as canonical JSON, the same whatever the
        ``PYTHONHASHSEED``.  A condition's ``line`` is behaviour — FLAG_ERROR
        reports it — and is left out only because :meth:`checksum` compares
        one object with itself: the control node's tables and the copy an
        engine arms are the same compilation."""
        tables = (
            self.scenario_name, self.timeout_ns, self.filters.entries, self.nodes.entries,
            self.counters, self.terms, self.conditions, self.actions, self.variables,
        )
        return json.dumps(tables, default=_plain, separators=(",", ":")).encode("ascii")

    def checksum(self) -> int:
        """CRC-32 over the canonical rendering of all six tables.

        Carried in the INIT control frame (field ``b``) and re-computed by
        the receiving engine before the tables are armed, so a corrupted
        table shipment is NACKed instead of silently producing a scenario
        that tests the wrong thing.
        """
        return zlib.crc32(self._canonical_rendering())


#: per table dataclass, the fields :func:`_plain` renders, in order.
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _plain(value: Any) -> Any:
    """``json.dumps``'s hook for the tables' non-JSON values: dataclasses
    (minus ``line``) and expression trees as lists, enums by value, sets
    sorted, addresses and byte strings as text."""
    names = _FIELDS.get(type(value))
    if names is None:
        if isinstance(value, enum.Enum):
            return value.value
        if not dataclasses.is_dataclass(value):
            if isinstance(value, (set, frozenset)):
                return sorted(value)
            if isinstance(value, ConditionExpr):
                return [value.op, value.term_id, value.children]
            return value.hex() if isinstance(value, bytes) else str(value)
        names = _FIELDS[type(value)] = tuple(
            f.name for f in dataclasses.fields(value) if f.name != "line"
        )
    return [getattr(value, name) for name in names]
