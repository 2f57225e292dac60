"""Test-local oracle for the rule run-time's op programs.

:class:`OracleRuntime` empties ``_condition_ops`` and fires rules the way
the run-time did before every condition compiled to an op program: one
``ActionSpec`` at a time through a single dispatch on ``action.kind``, every
counter write through ``_set_counter``, every gate through ``_touch``.
:class:`Recording` wraps either run-time so two runs can be compared event
by event.  Nothing here is imported by ``src/``.
"""

from repro.core.runtime import NodeRuntime, RuntimeHooks
from repro.core.tables import ActionKind

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


class OracleRuntime(NodeRuntime):
    """The per-action interpreter the op programs replaced."""

    def __init__(self, node_name, program, hooks):
        super().__init__(node_name, program, hooks)
        self._condition_ops = {}
        self._oracle_actions = {
            condition.condition_id: [
                program.actions[action_id]
                for node, action_id in condition.triggers
                if node == node_name and not program.actions[action_id].is_packet_fault
            ]
            for condition in program.conditions
        }

    def _fire_actions(self, condition_id):
        super()._fire_actions(condition_id)  # the audit line; no ops to run
        for action in self._oracle_actions[condition_id]:
            if self._stats is not None:
                self._stats.actions_fired += 1
            self._oracle_execute(action)
            if self.crashed:
                return

    def _oracle_execute(self, action):
        kind = action.kind
        if kind is ActionKind.ASSIGN_CNTR:
            self._set_counter(action.counter_id, action.value)
        elif kind is ActionKind.ENABLE_CNTR:
            self.enabled[action.counter_id] = True
            self._touch()
        elif kind is ActionKind.DISABLE_CNTR:
            self.enabled[action.counter_id] = False
            self._touch()
        elif kind is ActionKind.INCR_CNTR:
            self._set_counter(action.counter_id, self.values[action.counter_id] + action.value)
        elif kind is ActionKind.DECR_CNTR:
            self._set_counter(action.counter_id, self.values[action.counter_id] - action.value)
        elif kind is ActionKind.RESET_CNTR:
            self._set_counter(action.counter_id, 0)
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

        def _end_event(self, stats):
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
                )
            )
            return super()._end_event(stats)

    return Recording


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
