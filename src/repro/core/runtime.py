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
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..errors import EngineError
from ..sim import NS_PER_MS
from .tables import (
    ActionKind,
    ActionSpec,
    CompiledProgram,
    CounterKind,
    CounterSpec,
    Direction,
    RelOp,
    TermMode,
)

#: Cascade safety valve: counter-action loops (rule A enables rule B which
#: re-enables rule A ...) abort the event instead of hanging the simulator.
MAX_CASCADE_STEPS = 10_000

#: A term's relation as the C-level comparison that evaluates it.
_COMPARE = {
    RelOp.GT: operator.gt,
    RelOp.LT: operator.lt,
    RelOp.GE: operator.ge,
    RelOp.LE: operator.le,
    RelOp.EQ: operator.eq,
    RelOp.NE: operator.ne,
}

_SEND = Direction.SEND
#: the packet-probe entry of a packet no counter or fault matches.
_NO_ENTRY = ((), ())

#: Action opcodes (see NodeRuntime._condition_ops).  ADD/SET/GATE write a
#: value or enabled slot inline; the _CASCADE forms write a counter that
#: feeds terms or mirrors, through _set_counter; EXEC is an action with side
#: effects beyond the tables, through _execute.
_OP_ADD, _OP_SET, _OP_GATE, _OP_ADD_CASCADE, _OP_SET_CASCADE, _OP_EXEC = range(6)
_CASCADING = {_OP_ADD: _OP_ADD_CASCADE, _OP_SET: _OP_SET_CASCADE}


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
        self.started = False
        #: set by a CRASH action executing here: the node is dead, further
        #: settlement/armed-fault queries on this runtime are void.
        self.crashed = False

        # Precomputed local slices of the tables.
        self.my_event_counters: List[CounterSpec] = [
            c
            for c in program.counters
            if c.kind is CounterKind.EVENT and c.home_node == node_name
        ]
        self.my_condition_ids: List[int] = [
            c.condition_id
            for c in program.conditions
            if node_name in c.nodes() and not c.is_true_rule
        ]
        self.my_true_rules = [
            c for c in program.conditions if c.is_true_rule and node_name in c.nodes()
        ]
        self.my_fault_actions: List[ActionSpec] = [
            a for a in program.actions if a.is_packet_fault and a.node == node_name
        ]
        # The packet probe: one exact-key index over the static match fields
        # per direction, so a packet costs one lookup of (pkt_type, src, dst)
        # — strings, no Enum hash — yielding the ids of the event counters
        # it bumps and the packet faults it may arm.  Both lists are in file
        # order, so counter-update and fault-application order is that of
        # the linear scans the index replaces.  Dynamic state (enabled
        # flags, condition truth) is still checked per event.
        self._send_probe: Dict[tuple, tuple] = {}
        self._recv_probe: Dict[tuple, tuple] = {}
        for counter in self.my_event_counters:
            self._probe_entry(counter)[0].append(counter.counter_id)
        for action in self.my_fault_actions:
            self._probe_entry(action)[1].append(action)
        # Each term as (comparison, lhs counter id, lhs constant, rhs counter
        # id, rhs constant), and per counter the terms its changes
        # re-evaluate here: (term id, owned) — owned terms this node
        # evaluates and broadcasts, the others are local mirrors.
        self._term_ops: List[tuple] = [
            (
                _COMPARE[t.op],
                t.lhs.counter_id,
                t.lhs.constant,
                t.rhs.counter_id,
                t.rhs.constant,
            )
            for t in program.terms
        ]
        self._counter_terms: List[tuple] = [
            tuple(
                (term_id, program.terms[term_id].mode is TermMode.LOCAL_BROADCAST)
                for term_id in c.term_ids
                if self._evaluates_here(program.terms[term_id])
            )
            for c in program.counters
        ]
        # A condition that is one TERM leaf is read straight off
        # term_status; None marks a compound expression.
        self._leaf_term: List[Optional[int]] = [
            c.expr.term_id if c.expr.op == "TERM" else None for c in program.conditions
        ]
        # Who hears of a term's status change: the remote consumer nodes (to
        # push to, when this node owns the term) and the local conditions to
        # re-evaluate (when this node consumes it).
        self._term_fanout: Dict[int, tuple] = {
            t.term_id: (
                [n for n in t.consumer_nodes if n != node_name],
                [c for c in t.condition_ids if c in self.my_condition_ids]
                if node_name in t.consumer_nodes
                else [],
            )
            for t in program.terms
        }
        # Counters whose updates touch nothing beyond the value slot (no
        # terms to re-evaluate, no mirrors to push): _set_counter returns
        # early for these, which is the common case on the packet hot path.
        self._counter_plain: List[bool] = [
            not c.term_ids
            and not (c.home_node == node_name and c.mirror_subscribers)
            for c in program.counters
        ]
        # One straight-line op program per condition: its non-fault actions
        # on this node, in trigger order, as (op, counter_id, operand)
        # tuples that _fire_actions runs inline (docs/PERF.md).  Packet
        # faults are absent: they arm via condition state, not by firing.
        self._condition_ops: Dict[int, List[tuple]] = {}
        for condition in program.conditions:
            ops = [
                self._compile_action(program.actions[action_id])
                for node, action_id in condition.triggers
                if node == node_name
                and not program.actions[action_id].is_packet_fault
            ]
            if ops:
                self._condition_ops[condition.condition_id] = ops
        self._pending_conditions: Set[int] = set()
        self._stats: Optional[EventStats] = None
        self.events_seen = 0
        #: optional audit hook: (kind, detail) -> None; see repro.core.audit.
        self.audit: Optional[Callable[[str, str], None]] = None

    def _compile_action(self, action: ActionSpec) -> tuple:
        """The op for one non-fault action (see :attr:`_condition_ops`)."""
        kind = action.kind
        if kind is ActionKind.ENABLE_CNTR:
            return (_OP_GATE, action.counter_id, True)
        if kind is ActionKind.DISABLE_CNTR:
            return (_OP_GATE, action.counter_id, False)
        if kind is ActionKind.INCR_CNTR:
            op, operand = _OP_ADD, action.value
        elif kind is ActionKind.DECR_CNTR:
            op, operand = _OP_ADD, -action.value
        elif kind is ActionKind.ASSIGN_CNTR:
            op, operand = _OP_SET, action.value
        elif kind is ActionKind.RESET_CNTR:
            op, operand = _OP_SET, 0
        else:
            return (_OP_EXEC, None, action)
        if not self._counter_plain[action.counter_id]:
            op = _CASCADING[op]  # the write feeds terms or mirrors
        return (op, action.counter_id, operand)

    def _probe_entry(self, spec) -> tuple:
        """The packet-probe entry (counter ids, faults) for a counter's or a
        fault's match fields, created empty on first use."""
        probe = self._send_probe if spec.direction is _SEND else self._recv_probe
        return probe.setdefault((spec.pkt_type, spec.src_node, spec.dst_node), ([], []))

    def _evaluates_here(self, term) -> bool:
        """Whether this node evaluates *term*: as its owner, or as a consumer
        mirroring both counters."""
        if term.mode is TermMode.LOCAL_BROADCAST:
            return term.home_node == self.node_name
        return self.node_name in term.consumer_nodes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> EventStats:
        """Run the (TRUE) initialisation rules and compute initial states."""
        stats = self._begin_event()
        self.started = True
        for condition in self.my_true_rules:
            self.condition_state[condition.condition_id] = True
            self._fire_actions(condition.condition_id)
        # Evaluate the terms this node owns and push any non-default status.
        for term in self.program.terms:
            if self._evaluates_here(term):
                owned = term.mode is TermMode.LOCAL_BROADCAST
                self._evaluate_term(term.term_id, owned, broadcast_initial=owned)
        for condition_id in self.my_condition_ids:
            self._pending_conditions.add(condition_id)
        self._settle()
        return self._end_event(stats)

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

        One probe finds the event counters to bump and the packet faults
        that may apply; the returned stats carry the faults armed once the
        event has settled (none on a node the event crashed).
        """
        stats = self._begin_event()
        self.events_seen += 1
        probe = self._send_probe if direction is _SEND else self._recv_probe
        counters, faults = probe.get((pkt_type, src_node, dst_node), _NO_ENTRY)
        enabled, values = self.enabled, self.values
        for counter_id in counters:
            if enabled[counter_id]:
                self._set_counter(counter_id, values[counter_id] + 1)
        if self._pending_conditions:
            self._settle()
        if faults and not self.crashed:
            state = self.condition_state
            stats.faults = [a for a in faults if state.get(a.condition_id, False)]
        return self._end_event(stats)

    # ------------------------------------------------------------------
    # Control-plane inputs
    # ------------------------------------------------------------------

    def on_counter_update(self, counter_id: int, value: int) -> EventStats:
        """A remote home pushed a counter value we mirror.

        Idempotent under control-plane replays: a value-identical push (a
        retransmission that slipped past channel dedup, or a genuine
        re-broadcast of an unchanged value) re-evaluates nothing.
        """
        stats = self._begin_event()
        if self.values[counter_id] == value:
            return self._end_event(stats)
        self.values[counter_id] = value
        self._touch()
        for term_id, owned in self._counter_terms[counter_id]:
            if not owned:
                self._evaluate_term(term_id, False)
        self._settle()
        return self._end_event(stats)

    def on_term_status(self, term_id: int, status: bool) -> EventStats:
        """A remote home pushed a term status change.

        Replay-safe: a duplicate status (same value as our local view)
        schedules no condition re-evaluation.
        """
        stats = self._begin_event()
        old = self.term_status.get(term_id, False)
        self.term_status[term_id] = status
        if status != old:
            for condition_id in self.program.terms[term_id].condition_ids:
                if condition_id in self.my_condition_ids:
                    self._pending_conditions.add(condition_id)
        self._settle()
        return self._end_event(stats)

    # ------------------------------------------------------------------
    # Counter mutation and propagation
    # ------------------------------------------------------------------

    def _touch(self) -> None:
        if self._stats is not None:
            self._stats.counter_touches += 1

    def _set_counter(self, counter_id: int, value: int) -> None:
        self.values[counter_id] = value
        if self._stats is not None:
            self._stats.counter_touches += 1
        if self._counter_plain[counter_id]:
            return
        counter = self.program.counters[counter_id]
        if counter.home_node == self.node_name and counter.mirror_subscribers:
            self.hooks.send_counter_update(counter_id, value, counter.mirror_subscribers)
        for term_id, owned in self._counter_terms[counter_id]:
            self._evaluate_term(term_id, owned)

    def _evaluate_term(self, term_id: int, owned: bool, broadcast_initial: bool = False) -> None:
        """Re-evaluate a term this node evaluates; on a change, schedule the
        local conditions over it and, for a term it *owns*, push the new
        status to the remote consumers (at start, a true status always)."""
        compare, lhs_id, lhs, rhs_id, rhs = self._term_ops[term_id]
        if lhs_id is not None:
            lhs = self.values[lhs_id]
        if rhs_id is not None:
            rhs = self.values[rhs_id]
        if self._stats is not None:
            self._stats.terms_evaluated += 1
        new = compare(lhs, rhs)
        if new == self.term_status.get(term_id, False) and not (broadcast_initial and new):
            return
        self.term_status[term_id] = new
        remote, local = self._term_fanout[term_id]
        if owned and remote:
            self.hooks.send_term_status(term_id, new, list(remote))
        self._pending_conditions.update(local)

    # ------------------------------------------------------------------
    # Condition settlement and action firing
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """Drain pending condition re-evaluations in two-phase waves.

        Each wave first evaluates *every* pending condition against the
        current state, then fires the false→true edges.  Evaluating before
        firing matters: two rules triggered by the same counter value must
        both observe it (the paper's Fig 6 script has one rule RESET a
        counter that a sibling STOP rule tests — with eager firing the
        reset would always win and the STOP could never trigger).
        """
        pending, stats = self._pending_conditions, self._stats
        term_status, state = self.term_status, self.condition_state
        steps = 0
        while pending and not self.crashed:
            steps += 1
            if steps > MAX_CASCADE_STEPS:
                raise EngineError(
                    f"{self.node_name}: rule cascade exceeded "
                    f"{MAX_CASCADE_STEPS} steps (cyclic counter rules?)"
                )
            wave = sorted(pending) if len(pending) > 1 else list(pending)
            pending.clear()
            edges = []
            for condition_id in wave:
                if stats is not None:
                    stats.conditions_evaluated += 1
                term_id = self._leaf_term[condition_id]
                if term_id is None:
                    new = self.program.conditions[condition_id].expr.evaluate(term_status)
                else:
                    new = term_status.get(term_id, False)
                if new and not state.get(condition_id, False):
                    edges.append(condition_id)
                state[condition_id] = new
            for condition_id in edges:
                self._fire_actions(condition_id)

    def _fire_actions(self, condition_id: int) -> None:
        if self.audit is not None:
            condition = self.program.conditions[condition_id]
            where = "TRUE rule" if condition.is_true_rule else f"line {condition.line}"
            self.audit("condition", f"{where} satisfied")
        stats = self._stats
        values = self.values
        enabled = self.enabled
        ops = self._condition_ops.get(condition_id, ())
        fired = len(ops)
        outlined = 0  # ops whose table touch _set_counter/_execute counts itself
        for op, counter_id, operand in ops:
            if op == _OP_ADD:
                values[counter_id] += operand
            elif op == _OP_SET:
                values[counter_id] = operand
            elif op == _OP_GATE:
                enabled[counter_id] = operand
            else:
                outlined += 1
                if op == _OP_ADD_CASCADE:
                    self._set_counter(counter_id, values[counter_id] + operand)
                elif op == _OP_SET_CASCADE:
                    self._set_counter(counter_id, operand)
                else:
                    self._execute(operand)
                if self.crashed:
                    # A CRASH took the node down mid-rule: only the ops up
                    # to this one (the outlined-th outlined op) have fired.
                    fired = [i for i, o in enumerate(ops) if o[0] > _OP_GATE][outlined - 1] + 1
                    break
        if stats is not None:
            stats.actions_fired += fired
            stats.counter_touches += fired - outlined

    def _execute(self, action: ActionSpec) -> None:
        """An action with side effects beyond the counter tables."""
        kind = action.kind
        if kind is ActionKind.SET_CURTIME:
            self.timestamps[action.counter_id] = self.hooks.now()
            self._touch()
        elif kind is ActionKind.ELAPSED_TIME:
            elapsed_ms = (self.hooks.now() - self.timestamps[action.counter_id]) // NS_PER_MS
            self._set_counter(action.counter_id, elapsed_ms)
        elif kind is ActionKind.FAIL:
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
    # Event bracketing
    # ------------------------------------------------------------------

    def _begin_event(self) -> EventStats:
        stats = EventStats()
        self._stats = stats
        return stats

    def _end_event(self, stats: EventStats) -> EventStats:
        self._stats = None
        return stats

    # ------------------------------------------------------------------
    # Introspection (reports and tests)
    # ------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self.values[self.program.counter_by_name(name).counter_id]

    def counters_snapshot(self) -> Dict[str, int]:
        return {c.name: self.values[c.counter_id] for c in self.program.counters}

    def __repr__(self) -> str:
        return f"NodeRuntime({self.node_name}, events={self.events_seen})"
