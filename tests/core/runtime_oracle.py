"""Test-local oracle for the rule run-time's generated kernels.

:class:`OracleRuntime` runs a program the way the run-time did before any
of it was compiled to Python: per packet a linear scan of the event
counters and packet faults, every counter write through one
``_oracle_set_counter`` that pushes mirrors and re-evaluates terms one by
one, two-phase settlement waves, and rules fired one ``ActionSpec`` at a
time through a single dispatch on ``action.kind``.  Only the side effects
beyond the tables (``NodeRuntime._execute``) and the introspection helpers
are shared with production.  :func:`recording` wraps either run-time so two
runs can be compared event by event.  Nothing here is imported by ``src/``.
"""

from repro.core.runtime import MAX_CASCADE_STEPS, EventStats, NodeRuntime, RuntimeHooks
from repro.core.tables import ActionKind, CounterKind, TermMode
from repro.errors import EngineError
from repro.sim import NS_PER_MS

#: the hook methods a run-time may call on its engine.
HOOK_NAMES = (
    "send_counter_update",
    "send_term_status",
    "report_error",
    "report_stop",
    "fail_local_host",
    "crash_local_host",
    "request_restart",
)

_COMPARE = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class OracleRuntime(NodeRuntime):
    """The interpreter the generated kernels replaced."""

    def __init__(self, node_name, program, hooks):
        super().__init__(node_name, program, hooks)
        self._stats = None
        self._my_conditions = [
            c.condition_id
            for c in program.conditions
            if node_name in c.nodes() and not c.is_true_rule
        ]

    # -- entry points -------------------------------------------------------

    def start(self):
        stats = self._stats = EventStats()
        self.started = True
        for condition in self.program.conditions:
            if condition.is_true_rule and self.node_name in condition.nodes():
                self.condition_state[condition.condition_id] = True
                self._oracle_fire(condition.condition_id)
        for term in self.program.terms:
            if self._oracle_evaluates(term):
                owned = term.mode is TermMode.LOCAL_BROADCAST
                self._oracle_evaluate_term(term.term_id, owned, initial=owned)
        self.pending_conditions.update(self._my_conditions)
        self._oracle_settle()
        return stats

    def on_classified_packet(self, pkt_type, src_node, dst_node, direction):
        stats = self._stats = EventStats()
        self.events_seen += 1
        packet = (pkt_type, src_node, dst_node, direction)
        for counter in self.program.counters:
            if (
                counter.kind is CounterKind.EVENT
                and counter.home_node == self.node_name
                and (counter.pkt_type, counter.src_node, counter.dst_node, counter.direction) == packet
                and self.enabled[counter.counter_id]
            ):
                self._oracle_set_counter(counter.counter_id, self.values[counter.counter_id] + 1)
        self._oracle_settle()
        if not self.crashed:
            stats.faults = [
                action
                for action in self.program.actions
                if action.is_packet_fault
                and action.node == self.node_name
                and (action.pkt_type, action.src_node, action.dst_node, action.direction) == packet
                and self.condition_state.get(action.condition_id, False)
            ]
        return stats

    def on_counter_update(self, counter_id, value):
        stats = self._stats = EventStats()
        if self.values[counter_id] == value:
            return stats
        self.values[counter_id] = value
        stats.counter_touches += 1
        for term_id in self.program.counters[counter_id].term_ids:
            term = self.program.terms[term_id]
            if self._oracle_evaluates(term) and term.mode is TermMode.MIRROR:
                self._oracle_evaluate_term(term_id, False)
        self._oracle_settle()
        return stats

    def on_term_status(self, term_id, status):
        stats = self._stats = EventStats()
        old = self.term_status.get(term_id, False)
        self.term_status[term_id] = status
        if status != old:
            for condition_id in self.program.terms[term_id].condition_ids:
                if condition_id in self._my_conditions:
                    self.pending_conditions.add(condition_id)
        self._oracle_settle()
        return stats

    # -- the interpreter ----------------------------------------------------

    def _oracle_evaluates(self, term):
        if term.mode is TermMode.LOCAL_BROADCAST:
            return term.home_node == self.node_name
        return self.node_name in term.consumer_nodes

    def _oracle_set_counter(self, counter_id, value):
        self.values[counter_id] = value
        self._stats.counter_touches += 1
        counter = self.program.counters[counter_id]
        if counter.home_node == self.node_name and counter.mirror_subscribers:
            self.hooks.send_counter_update(counter_id, value, counter.mirror_subscribers)
        for term_id in counter.term_ids:
            term = self.program.terms[term_id]
            if self._oracle_evaluates(term):
                self._oracle_evaluate_term(term_id, term.mode is TermMode.LOCAL_BROADCAST)

    def _oracle_operand(self, operand):
        return self.values[operand.counter_id] if operand.is_counter else operand.constant

    def _oracle_evaluate_term(self, term_id, owned, initial=False):
        term = self.program.terms[term_id]
        self._stats.terms_evaluated += 1
        new = _COMPARE[term.op.value](self._oracle_operand(term.lhs), self._oracle_operand(term.rhs))
        if new == self.term_status.get(term_id, False) and not (initial and new):
            return
        self.term_status[term_id] = new
        remote = [n for n in term.consumer_nodes if n != self.node_name]
        if owned and remote:
            self.hooks.send_term_status(term_id, new, list(remote))
        if self.node_name in term.consumer_nodes:
            self.pending_conditions.update(
                c for c in term.condition_ids if c in self._my_conditions
            )

    def _oracle_settle(self):
        pending, state = self.pending_conditions, self.condition_state
        steps = 0
        while pending and not self.crashed:
            steps += 1
            if steps > MAX_CASCADE_STEPS:
                raise EngineError(f"{self.node_name}: rule cascade exceeded {MAX_CASCADE_STEPS} steps")
            wave = sorted(pending)
            pending.clear()
            edges = []
            for condition_id in wave:
                self._stats.conditions_evaluated += 1
                new = self.program.conditions[condition_id].expr.evaluate(self.term_status)
                if new and not state.get(condition_id, False):
                    edges.append(condition_id)
                state[condition_id] = new
            for condition_id in edges:
                self._oracle_fire(condition_id)

    def _oracle_fire(self, condition_id):
        condition = self.program.conditions[condition_id]
        if self.audit is not None:
            where = "TRUE rule" if condition.is_true_rule else f"line {condition.line}"
            self.audit("condition", f"{where} satisfied")
        for node, action_id in condition.triggers:
            action = self.program.actions[action_id]
            if node != self.node_name or action.is_packet_fault:
                continue
            self._stats.actions_fired += 1
            self._oracle_execute(action)
            if self.crashed:
                return

    def _oracle_execute(self, action):
        kind, counter_id = action.kind, action.counter_id
        if kind is ActionKind.ASSIGN_CNTR:
            self._oracle_set_counter(counter_id, action.value)
        elif kind is ActionKind.ENABLE_CNTR:
            self.enabled[counter_id] = True
            self._stats.counter_touches += 1
        elif kind is ActionKind.DISABLE_CNTR:
            self.enabled[counter_id] = False
            self._stats.counter_touches += 1
        elif kind is ActionKind.INCR_CNTR:
            self._oracle_set_counter(counter_id, self.values[counter_id] + action.value)
        elif kind is ActionKind.DECR_CNTR:
            self._oracle_set_counter(counter_id, self.values[counter_id] - action.value)
        elif kind is ActionKind.RESET_CNTR:
            self._oracle_set_counter(counter_id, 0)
        elif kind is ActionKind.SET_CURTIME:
            self.timestamps[counter_id] = self.hooks.now()
            self._stats.counter_touches += 1
        elif kind is ActionKind.ELAPSED_TIME:
            elapsed_ms = (self.hooks.now() - self.timestamps[counter_id]) // NS_PER_MS
            self._oracle_set_counter(counter_id, elapsed_ms)
        else:
            self._execute(action)  # side effects beyond the tables: shared


class StubHooks(RuntimeHooks):
    """Hooks that do nothing, for driving a run-time with no engine; ``time``
    is what ``now()`` answers."""

    time = 0

    def now(self):
        return self.time


for _name in HOOK_NAMES:
    setattr(StubHooks, _name, lambda self, *args: None)


#: the run-time entry points that each make one event.
ENTRY_POINTS = ("start", "on_classified_packet", "on_counter_update", "on_term_status")


def recording(base, log):
    """A subclass of *base* appending to *log*, in order, every hook call and
    audit line it emits and, at the end of every event, the event's
    ``EventStats`` and the full table state it left behind."""

    class Recording(base):
        def __init__(self, node_name, program, hooks):
            super().__init__(node_name, program, _RecordingHooks(node_name, hooks, log))

        @property
        def audit(self):
            return self._recording_audit

        @audit.setter
        def audit(self, sink):
            def record(kind, detail):
                log.append((self.node_name, "audit", kind, detail))
                sink(kind, detail)

            self._recording_audit = None if sink is None else record

        def _record(self, stats):
            log.append(
                (
                    self.node_name,
                    "event",
                    (
                        stats.counter_touches,
                        stats.actions_fired,
                        stats.terms_evaluated,
                        stats.conditions_evaluated,
                    ),
                    tuple(self.values),
                    tuple(self.enabled),
                    tuple(self.timestamps),
                    tuple(sorted(self.term_status.items())),
                    tuple(sorted(self.condition_state.items())),
                    self.crashed,
                    tuple(action.action_id for action in stats.faults),
                )
            )
            return stats

    for name in ENTRY_POINTS:
        setattr(Recording, name, _recorded(base, name))
    return Recording


def _recorded(base, name):
    entry = getattr(base, name)

    def call(self, *args):
        return self._record(entry(self, *args))

    call.__name__ = name
    return call


def _plain(arg):
    """A hook argument as a comparable value (node collections may be sets)."""
    if isinstance(arg, (set, frozenset)):
        return tuple(sorted(arg))
    return tuple(arg) if isinstance(arg, list) else arg


class _RecordingHooks:
    def __init__(self, node_name, hooks, log):
        self._hooks = hooks
        for name in HOOK_NAMES:
            setattr(self, name, self._recorder(node_name, name, log))
        self.now = hooks.now

    def _recorder(self, node_name, name, log):
        forward = getattr(self._hooks, name)

        def call(*args):
            log.append((node_name, name, tuple(_plain(arg) for arg in args)))
            return forward(*args)

        return call
