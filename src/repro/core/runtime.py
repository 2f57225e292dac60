"""Per-node counter/term/condition run-time (paper Fig 3 and Fig 4(b)).

Each node's FIE/FAE owns a :class:`NodeRuntime` holding the execution state
of the six tables.  The flow per classified packet is exactly the paper's
Fig 4(b): the packet event updates counters; a counter change re-evaluates
the terms tagged on it; term changes re-evaluate the conditions tagged on
the terms; a condition's false→true edge triggers its actions — which may
themselves be counter updates, feeding the same loop.

Distribution (paper §5.2): a counter-vs-constant term is evaluated at the
counter's home node and its *status* is pushed to remote consumers only on
change; a counter-vs-counter term is evaluated at each consumer from
mirrored counter *values* pushed on every change.  Conditions are evaluated
at every node hosting a dependent action.  The pushes happen through the
:class:`RuntimeHooks` the engine provides, which turn them into raw-
Ethernet control frames.

What a node runs of a program is compiled once into Python functions
(:class:`NodeKernels`, cached on the program): per packet-probe key a bump
function that increments the event counters and re-evaluates their terms
inline, and per condition its actions as straight-line code.  Generated
source holds only ints, bools, operators and a fixed vocabulary of local
names; every table object it touches is bound through the ``exec``
namespace, so nothing a script names reaches the source (docs/PERF.md).
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EngineError
from ..sim import NS_PER_MS
from .classify import define, int_literal, stub
from .tables import (
    ActionKind,
    ActionSpec,
    CompiledProgram,
    CounterKind,
    Direction,
    RelOp,
    TermMode,
)

#: Cascade safety valve: counter-action loops (rule A enables rule B which
#: re-enables rule A ...) abort the event instead of hanging the simulator.
MAX_CASCADE_STEPS = 10_000

#: A term's relation as the operator generated code evaluates it with.
_OPERATORS = {
    RelOp.GT: ">",
    RelOp.LT: "<",
    RelOp.GE: ">=",
    RelOp.LE: "<=",
    RelOp.EQ: "==",
    RelOp.NE: "!=",
}

#: Counter writes as (operator, operand sign): INCR/DECR add to the value,
#: ASSIGN/RESET replace it (RESET with 0).
_WRITES = {
    ActionKind.INCR_CNTR: ("+", 1),
    ActionKind.DECR_CNTR: ("+", -1),
    ActionKind.ASSIGN_CNTR: ("=", 1),
    ActionKind.RESET_CNTR: ("=", 0),
}

#: Actions with side effects beyond the counter tables, run by _execute.
_EXECUTED = {
    ActionKind.FAIL,
    ActionKind.CRASH,
    ActionKind.RESTART,
    ActionKind.STOP,
    ActionKind.FLAG_ERROR,
}

#: Table state a generated function reads, as (local name, runtime attribute).
_STATE = (
    ("values", "values"),
    ("enabled", "enabled"),
    ("timestamps", "timestamps"),
    ("term_status", "term_status"),
    ("pending", "pending_conditions"),
    ("hooks", "hooks"),
)

_SEND = Direction.SEND
#: the packet-probe entry of a packet no counter or fault matches.
_NO_ENTRY = (None, ())


class RuntimeHooks:
    """Callbacks the engine supplies; overridden per engine instance."""

    def send_counter_update(self, counter_id: int, value: int, nodes: Iterable[str]) -> None:
        raise NotImplementedError

    def send_term_status(self, term_id: int, status: bool, nodes: Iterable[str]) -> None:
        raise NotImplementedError

    def report_error(self, condition_id: int, action_id: int) -> None:
        raise NotImplementedError

    def report_stop(self, condition_id: int) -> None:
        raise NotImplementedError

    def fail_local_host(self) -> None:
        raise NotImplementedError

    def crash_local_host(self) -> None:
        raise NotImplementedError

    def request_restart(self, target_node: str, delay_ns: int) -> None:
        raise NotImplementedError

    def now(self) -> int:
        raise NotImplementedError


class EventStats:
    """Work performed while processing one packet event (for the cost model).

    ``faults`` is what a packet event leaves for the engine to apply: the
    packet faults matching the packet whose condition holds once the event
    has settled, in file order.
    """

    __slots__ = (
        "counter_touches",
        "actions_fired",
        "terms_evaluated",
        "conditions_evaluated",
        "faults",
    )

    def __init__(self) -> None:
        self.counter_touches = 0
        self.actions_fired = 0
        self.terms_evaluated = 0
        self.conditions_evaluated = 0
        self.faults: Sequence[ActionSpec] = ()


# ---------------------------------------------------------------------------
# The generated kernels of one (program, node)
# ---------------------------------------------------------------------------


class _Kernel:
    """One generated function under construction: its body, and the
    namespace the objects it names are bound in."""

    def __init__(self) -> None:
        self.body: List[str] = []
        self.namespace: Dict[str, object] = {}

    def bind(self, prefix: str, value: object) -> str:
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def build(self, params: str) -> Callable:
        """``def kernel(params)``, loading first the table state it names."""
        text = "\n".join(self.body)
        prologue = [
            f"{local} = rt.{attribute}"
            for local, attribute in _STATE
            if re.search(rf"\b{local}\b", text)
        ]
        lines = [f"def kernel({params}):"] + [f"    {line}" for line in prologue + self.body]
        return define("\n".join(lines), self.namespace)["kernel"]


class NodeKernels:
    """What one node runs of one program, generated once and shared by every
    :class:`NodeRuntime` of that pair (see :meth:`for_node`).

    Every generated function takes ``(rt, stats)``: the runtime whose
    tables it reads and writes, and the :class:`EventStats` it charges.
    The counts it charges are those of the paper's interpreter, one table
    touch per counter write, gate or time stamp, one term evaluation per
    term a write re-evaluates, so the virtual-time cost model is unchanged.
    Each function is compiled on its first call (see
    :func:`repro.core.classify.stub`).
    """

    def __init__(self, program: CompiledProgram, node_name: str) -> None:
        self.node_name = node_name
        self.program = program
        #: conditions evaluated here (TRUE rules apart), in id order.
        self.condition_ids: List[int] = [
            c.condition_id
            for c in program.conditions
            if node_name in c.nodes() and not c.is_true_rule
        ]
        local = set(self.condition_ids)
        self.true_rules: List[int] = [
            c.condition_id for c in program.conditions if c.is_true_rule and node_name in c.nodes()
        ]
        # A condition that is one TERM leaf is read straight off
        # term_status; None marks a compound expression.
        self.leaf_term: List[Optional[int]] = [
            c.expr.term_id if c.expr.op == "TERM" else None for c in program.conditions
        ]
        #: per term, the local conditions a change of its status re-evaluates.
        self.term_conditions: List[Tuple[int, ...]] = [
            tuple(c for c in t.condition_ids if c in local) for t in program.terms
        ]
        # Per counter, the terms its changes re-evaluate here: (term id,
        # owned) — owned terms this node evaluates and broadcasts, the
        # others are local mirrors.
        self._counter_terms: List[Tuple[Tuple[int, bool], ...]] = [
            tuple(
                (term_id, program.terms[term_id].mode is TermMode.LOCAL_BROADCAST)
                for term_id in c.term_ids
                if self._evaluates_here(program.terms[term_id])
            )
            for c in program.counters
        ]
        # Per term, the remote consumers an owned term's status goes to.
        self._remote: List[List[str]] = [
            [n for n in t.consumer_nodes if n != node_name] for t in program.terms
        ]
        #: the control-plane inputs this node accepts: values of the
        #: counters it mirrors, statuses of the remote terms it consumes.
        self.mirrored: frozenset = frozenset(
            c.counter_id
            for c in program.counters
            if c.home_node != node_name and node_name in c.mirror_subscribers
        )
        self.remote_terms: frozenset = frozenset(
            t.term_id
            for t in program.terms
            if t.mode is TermMode.LOCAL_BROADCAST
            and t.home_node != node_name
            and node_name in t.consumer_nodes
        )

        # The packet probe: one exact-key index over the static match
        # fields per direction, so a packet costs one lookup of (pkt_type,
        # src, dst) — strings, no Enum hash — yielding its bump function
        # and the packet faults it may arm.  Both are in file order, so
        # counter-update and fault-application order is that of a linear
        # scan.  Dynamic state (enabled flags, condition truth) is checked
        # per event.
        probes: Dict[tuple, Tuple[List[int], List[ActionSpec]]] = {}
        for counter in program.counters:
            if counter.kind is CounterKind.EVENT and counter.home_node == node_name:
                self._probe_slot(probes, counter)[0].append(counter.counter_id)
        for action in program.actions:
            if action.is_packet_fault and action.node == node_name:
                self._probe_slot(probes, action)[1].append(action)
        self.send_probe: Dict[tuple, tuple] = {}
        self.recv_probe: Dict[tuple, tuple] = {}
        for (direction, *key), (counters, faults) in probes.items():
            probe = self.send_probe if direction is _SEND else self.recv_probe
            probe[tuple(key)] = self._probe_entry(probe, tuple(key), counters, tuple(faults))
        #: per condition id, its actions here as one function (None: none).
        self.fire: List[Optional[Callable]] = [None] * len(program.conditions)
        for condition in program.conditions:
            actions = [
                program.actions[action_id]
                for node, action_id in condition.triggers
                if node == node_name and not program.actions[action_id].is_packet_fault
            ]
            if actions:
                self.fire[condition.condition_id] = stub(
                    functools.partial(self._fire, actions),
                    functools.partial(self.fire.__setitem__, condition.condition_id),
                )
        #: per term id, the function re-evaluating it here (None: evaluated
        #: elsewhere); its third argument is true at start, when an owned
        #: term's true status is pushed even though it did not change.
        self.terms: List[Optional[Callable]] = [None] * len(program.terms)
        for term in program.terms:
            if self._evaluates_here(term):
                self.terms[term.term_id] = stub(
                    functools.partial(self._term, term.term_id),
                    functools.partial(self.terms.__setitem__, term.term_id),
                )
        #: per counter id, the mirror terms a pushed value re-evaluates here.
        self.mirror_terms: Dict[int, Tuple[int, ...]] = {
            counter_id: tuple(term_id for term_id, owned in pairs if not owned)
            for counter_id, pairs in enumerate(self._counter_terms)
            if any(not owned for _, owned in pairs)
        }

    @classmethod
    def for_node(cls, program: CompiledProgram, node_name: str) -> "NodeKernels":
        """The kernels of *node_name*, made on first use and cached on
        *program*: a program reused across cells compiles no code."""
        cache = program.node_kernels
        kernels = cache.get(node_name)
        if kernels is None:
            kernels = cache[node_name] = cls(program, node_name)
        return kernels

    def _evaluates_here(self, term) -> bool:
        """Whether this node evaluates *term*: as its owner, or as a consumer
        mirroring both counters."""
        if term.mode is TermMode.LOCAL_BROADCAST:
            return term.home_node == self.node_name
        return self.node_name in term.consumer_nodes

    @staticmethod
    def _probe_slot(probes: dict, spec) -> tuple:
        """The (counter ids, faults) slot for a counter's or a fault's match
        fields, created empty on first use."""
        return probes.setdefault(
            (spec.direction, spec.pkt_type, spec.src_node, spec.dst_node), ([], [])
        )

    def _probe_entry(self, probe: dict, key: tuple, counters: List[int], faults: tuple) -> tuple:
        """A probe entry: (bump function or None, faults)."""
        if not counters:
            return (None, faults)

        def install(bump: Callable) -> None:
            probe[key] = (bump, faults)

        return (stub(functools.partial(self._bump, counters), install), faults)

    # -- code generation ------------------------------------------------------

    @staticmethod
    def _operand(operand) -> str:
        if operand.is_counter:
            return f"values[{int_literal(operand.counter_id)}]"
        return int_literal(operand.constant)

    def _term_block(
        self, kernel: _Kernel, term_id: int, owned: bool, indent: str, initial: bool = False
    ) -> None:
        """Re-evaluate a term this node evaluates; on a change, schedule the
        local conditions over it and, for a term it *owns*, push the new
        status to the remote consumers (with ``initial``, an owned term's
        true status always)."""
        term = self.program.terms[term_id]
        tid = int_literal(term_id)
        changed = f"new != term_status.get({tid}, False)"
        if initial and owned:
            changed += " or initial and new"
        compare = f"{self._operand(term.lhs)} {_OPERATORS[term.op]} {self._operand(term.rhs)}"
        lines = [f"new = {compare}", f"if {changed}:", f"    term_status[{tid}] = new"]
        remote = self._remote[term_id]
        if owned and remote:
            consumers = kernel.bind("N", remote)
            lines.append(f"    hooks.send_term_status({tid}, new, list({consumers}))")
        lines.extend(f"    pending.add({int_literal(c)})" for c in self.term_conditions[term_id])
        kernel.body.extend(indent + line for line in lines)

    def _write(
        self, kernel: _Kernel, counter_id: int, op: str, operand: str, indent: str = ""
    ) -> int:
        """Store into a counter (``op`` "+" adds *operand*, "=" replaces),
        then push its value to mirrors and re-evaluate its terms; returns
        the number of terms evaluated."""
        counter = self.program.counters[counter_id]
        cid = int_literal(counter_id)
        pushes = counter.home_node == self.node_name and counter.mirror_subscribers
        terms = self._counter_terms[counter_id]
        if not pushes and not terms:
            kernel.body.append(f"{indent}values[{cid}] {'+=' if op == '+' else '='} {operand}")
            return 0
        value = f"values[{cid}] + {operand}" if op == "+" else operand
        kernel.body += [f"{indent}v = {value}", f"{indent}values[{cid}] = v"]
        if pushes:
            subscribers = kernel.bind("S", counter.mirror_subscribers)
            kernel.body.append(f"{indent}hooks.send_counter_update({cid}, v, {subscribers})")
        for term_id, owned in terms:
            self._term_block(kernel, term_id, owned, indent)
        return len(terms)

    @staticmethod
    def _charge(indent: str = "", **counts: int) -> List[str]:
        return [f"{indent}stats.{field} += {int_literal(n)}" for field, n in counts.items() if n]

    def _bump(self, counter_ids: List[int]) -> Callable:
        """One probe key's event counters: each enabled one counts the packet."""
        kernel = _Kernel()
        for counter_id in counter_ids:
            kernel.body.append(f"if enabled[{int_literal(counter_id)}]:")
            terms = self._write(kernel, counter_id, "+", "1", "    ")
            kernel.body += self._charge("    ", counter_touches=1, terms_evaluated=terms)
        return kernel.build("rt, stats")

    def _fire(self, actions: List[ActionSpec]) -> Callable:
        """A condition's non-fault actions on this node, in trigger order, as
        straight-line code; packet faults arm via condition state instead.
        A CRASH stops the rule: only the actions up to it are charged."""
        kernel = _Kernel()
        fired = touches = terms = 0
        for action in actions:
            fired += 1
            kind = action.kind
            cid = None if action.counter_id is None else int_literal(action.counter_id)
            if kind in _WRITES:
                op, sign = _WRITES[kind]
                operand = int_literal(sign * action.value)
                terms += self._write(kernel, action.counter_id, op, operand)
                touches += 1
            elif kind is ActionKind.ENABLE_CNTR or kind is ActionKind.DISABLE_CNTR:
                kernel.body.append(f"enabled[{cid}] = {kind is ActionKind.ENABLE_CNTR}")
                touches += 1
            elif kind is ActionKind.SET_CURTIME:
                kernel.body.append(f"timestamps[{cid}] = hooks.now()")
                touches += 1
            elif kind is ActionKind.ELAPSED_TIME:
                elapsed = f"(hooks.now() - timestamps[{cid}]) // {int_literal(NS_PER_MS)}"
                terms += self._write(kernel, action.counter_id, "=", elapsed)
                touches += 1
            elif kind in _EXECUTED:
                kernel.body += [f"rt._execute({kernel.bind('A', action)})", "if rt.crashed:"]
                kernel.body += self._charge(
                    "    ", actions_fired=fired, counter_touches=touches, terms_evaluated=terms
                )
                kernel.body.append("    return")
            else:
                raise EngineError(f"cannot execute action kind {kind}")
        kernel.body += self._charge(
            actions_fired=fired, counter_touches=touches, terms_evaluated=terms
        )
        return kernel.build("rt, stats")

    def _term(self, term_id: int) -> Callable:
        kernel = _Kernel()
        kernel.body.append("stats.terms_evaluated += 1")
        owned = self.program.terms[term_id].mode is TermMode.LOCAL_BROADCAST
        self._term_block(kernel, term_id, owned, "", initial=True)
        return kernel.build("rt, stats, initial")


# ---------------------------------------------------------------------------
# The run-time
# ---------------------------------------------------------------------------


class NodeRuntime:
    """Execution state of the six tables on one node."""

    def __init__(self, node_name: str, program: CompiledProgram, hooks: RuntimeHooks) -> None:
        self.node_name = node_name
        self.program = program
        self.hooks = hooks
        count = len(program.counters)
        self.values: List[int] = [0] * count
        self.enabled: List[bool] = [c.initially_enabled for c in program.counters]
        self.timestamps: List[int] = [0] * count
        #: local view of term statuses (ours and received).
        self.term_status: Dict[int, bool] = {}
        #: state of conditions evaluated at this node.
        self.condition_state: Dict[int, bool] = {}
        #: conditions to re-evaluate when the event settles.
        self.pending_conditions: Set[int] = set()
        self.started = False
        #: set by a CRASH action executing here: the node is dead, further
        #: settlement/armed-fault queries on this runtime are void.
        self.crashed = False
        self.events_seen = 0
        #: optional audit hook: (kind, detail) -> None; see repro.core.audit.
        self.audit: Optional[Callable[[str, str], None]] = None
        kernels = NodeKernels.for_node(program, node_name)
        self.kernels = kernels
        self._send_probe = kernels.send_probe
        self._recv_probe = kernels.recv_probe
        self._fire = kernels.fire
        self._leaf_term = kernels.leaf_term

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> EventStats:
        """Run the (TRUE) initialisation rules and compute initial states."""
        stats = EventStats()
        self.started = True
        kernels = self.kernels
        for condition_id in kernels.true_rules:
            self.condition_state[condition_id] = True
            self._fire_rule(condition_id, stats)
        # Evaluate the terms this node evaluates; push any owned true status.
        for evaluate in kernels.terms:
            if evaluate is not None:
                evaluate(self, stats, True)
        self.pending_conditions.update(kernels.condition_ids)
        self._settle(stats)
        return stats

    # ------------------------------------------------------------------
    # Packet events
    # ------------------------------------------------------------------

    def on_classified_packet(
        self,
        pkt_type: str,
        src_node: Optional[str],
        dst_node: Optional[str],
        direction: Direction,
    ) -> EventStats:
        """A packet of *pkt_type* crossed this node's hook.

        One probe finds the bump function of the event counters and the
        packet faults that may apply; the returned stats carry the faults
        armed once the event has settled (none on a node the event crashed).
        """
        stats = EventStats()
        self.events_seen += 1
        probe = self._send_probe if direction is _SEND else self._recv_probe
        bump, faults = probe.get((pkt_type, src_node, dst_node), _NO_ENTRY)
        if bump is not None:
            bump(self, stats)
        if self.pending_conditions:
            self._settle(stats)
        if faults and not self.crashed:
            state = self.condition_state
            stats.faults = [a for a in faults if state.get(a.condition_id, False)]
        return stats

    # ------------------------------------------------------------------
    # Control-plane inputs
    # ------------------------------------------------------------------

    def on_counter_update(self, counter_id: int, value: int) -> EventStats:
        """A remote home pushed a counter value we mirror.

        Idempotent under control-plane replays: a value-identical push (a
        retransmission that slipped past channel dedup, or a genuine
        re-broadcast of an unchanged value) re-evaluates nothing.
        """
        stats = EventStats()
        if self.values[counter_id] == value:
            return stats
        self.values[counter_id] = value
        stats.counter_touches += 1
        kernels = self.kernels
        for term_id in kernels.mirror_terms.get(counter_id, ()):
            kernels.terms[term_id](self, stats, False)
        self._settle(stats)
        return stats

    def on_term_status(self, term_id: int, status: bool) -> EventStats:
        """A remote home pushed a term status change.

        Replay-safe: a duplicate status (same value as our local view)
        schedules no condition re-evaluation.
        """
        stats = EventStats()
        old = self.term_status.get(term_id, False)
        self.term_status[term_id] = status
        if status != old:
            self.pending_conditions.update(self.kernels.term_conditions[term_id])
        self._settle(stats)
        return stats

    # ------------------------------------------------------------------
    # Condition settlement and action firing
    # ------------------------------------------------------------------

    def _settle(self, stats: EventStats) -> None:
        """Drain pending condition re-evaluations in two-phase waves.

        Each wave first evaluates *every* pending condition against the
        current state, then fires the false→true edges.  Evaluating before
        firing matters: two rules triggered by the same counter value must
        both observe it (the paper's Fig 6 script has one rule RESET a
        counter that a sibling STOP rule tests — with eager firing the
        reset would always win and the STOP could never trigger).  A wave
        of one condition, the common case, is not sorted.
        """
        pending = self.pending_conditions
        term_status, state, leaf_term = self.term_status, self.condition_state, self._leaf_term
        steps = 0
        while pending and not self.crashed:
            steps += 1
            if steps > MAX_CASCADE_STEPS:
                raise EngineError(
                    f"{self.node_name}: rule cascade exceeded "
                    f"{MAX_CASCADE_STEPS} steps (cyclic counter rules?)"
                )
            if len(pending) == 1:
                wave: Sequence[int] = (pending.pop(),)
            else:
                wave = sorted(pending)
                pending.clear()
            edges = []
            for condition_id in wave:
                stats.conditions_evaluated += 1
                term_id = leaf_term[condition_id]
                if term_id is None:
                    new = self.program.conditions[condition_id].expr.evaluate(term_status)
                else:
                    new = term_status.get(term_id, False)
                if new and not state.get(condition_id, False):
                    edges.append(condition_id)
                state[condition_id] = new
            for condition_id in edges:
                self._fire_rule(condition_id, stats)

    def _fire_rule(self, condition_id: int, stats: EventStats) -> None:
        if self.audit is not None:
            condition = self.program.conditions[condition_id]
            where = "TRUE rule" if condition.is_true_rule else f"line {condition.line}"
            self.audit("condition", f"{where} satisfied")
        fire = self._fire[condition_id]
        if fire is not None:
            fire(self, stats)

    def _execute(self, action: ActionSpec) -> None:
        """An action with side effects beyond the counter tables."""
        kind = action.kind
        if kind is ActionKind.FAIL:
            if self.audit is not None:
                self.audit("fail", f"FAIL({self.node_name}) executed")
            self.hooks.fail_local_host()
        elif kind is ActionKind.CRASH:
            if self.audit is not None:
                self.audit("fail", f"CRASH({self.node_name}) executed")
            self.crashed = True
            self.hooks.crash_local_host()
        elif kind is ActionKind.RESTART:
            if self.audit is not None:
                self.audit(
                    "restart",
                    f"RESTART({action.target_node}) requested from "
                    f"{self.node_name}",
                )
            self.hooks.request_restart(action.target_node, action.delay_ns)
        elif kind is ActionKind.STOP:
            if self.audit is not None:
                self.audit("stop", "STOP executed")
            self.hooks.report_stop(action.condition_id)
        elif kind is ActionKind.FLAG_ERROR:
            if self.audit is not None:
                line = self.program.conditions[action.condition_id].line
                self.audit("error", f"FLAG_ERROR (script line {line})")
            self.hooks.report_error(action.condition_id, action.action_id)
        else:
            raise EngineError(f"cannot execute action kind {kind}")

    # ------------------------------------------------------------------
    # Peer rejoin support
    # ------------------------------------------------------------------

    def resend_state_to(self, node: str) -> None:
        """Replay this node's current shared state for a rebooted *node*.

        A freshly re-INITed node starts from all-default tables; any term
        status or mirrored counter value that is *currently* non-default
        at its home would otherwise never be pushed again (pushes happen
        on change only).  Replays are harmless to everyone else: both
        receive paths are idempotent.
        """
        if not self.started or self.crashed:
            return
        for term in self.program.terms:
            if (
                term.mode is TermMode.LOCAL_BROADCAST
                and term.home_node == self.node_name
                and node in term.consumer_nodes
                and node != self.node_name
                and self.term_status.get(term.term_id, False)
            ):
                self.hooks.send_term_status(term.term_id, True, [node])
        for counter in self.program.counters:
            if (
                counter.home_node == self.node_name
                and node in counter.mirror_subscribers
                and self.values[counter.counter_id] != 0
            ):
                self.hooks.send_counter_update(
                    counter.counter_id, self.values[counter.counter_id], [node]
                )

    # ------------------------------------------------------------------
    # Introspection (reports and tests)
    # ------------------------------------------------------------------

    def counters_snapshot(self) -> Dict[str, int]:
        return {c.name: self.values[c.counter_id] for c in self.program.counters}

    def __repr__(self) -> str:
        return f"NodeRuntime({self.node_name}, events={self.events_seen})"
