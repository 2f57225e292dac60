"""FSL compiler: scenario AST → :class:`CompiledProgram` (the six tables).

Beyond translation, the compiler computes the routing metadata the
distributed run-time needs (paper §5.1–5.2):

* each counter's **home node** — the node observing its event (dst for
  RECV, src for SEND) or, for local variables, the declared node;
* each term's **evaluation mode** — counter-vs-constant terms are evaluated
  at the counter's home and their *status* is broadcast on change;
  counter-vs-counter terms are evaluated at every consumer node from
  mirrored counter *values*;
* each condition's **evaluation sites** — every node hosting a dependent
  action evaluates the condition locally;
* per-counter **subscriber lists** so value changes generate exactly the
  control frames the consumers need.

It also prunes the filter table to the packet types the scenario references
(see DESIGN.md §2.3 — without pruning, unrelated earlier definitions would
steal the first-match classification) and derives each counter's initial
enablement: a counter that is ever the target of ENABLE_CNTR starts
disabled, every other counter starts armed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ...errors import FslCompileError
from ...net.addresses import IpAddress, MacAddress
from ..tables import (
    ActionKind,
    ActionSpec,
    CompiledProgram,
    ConditionExpr,
    ConditionSpec,
    CounterKind,
    CounterSpec,
    Direction,
    FilterEntry,
    FilterTable,
    FilterTuple,
    NodeEntry,
    NodeTable,
    Operand,
    RelOp,
    TermMode,
    TermSpec,
    VarRef,
)
from .ast import (
    ActionAst,
    AndAst,
    CondAst,
    NotAst,
    OrAst,
    PatchAst,
    ScenarioAst,
    ScriptAst,
    TermAst,
    TrueAst,
)

#: The control plane's ``b`` field, signed 64-bit, carries counter values
#: and restart delays: a literal outside it could never be sent.
_CONTROL_RANGE = range(-(1 << 63), 1 << 63)

_FAULT_KINDS = {
    "DROP": ActionKind.DROP,
    "DELAY": ActionKind.DELAY,
    "REORDER": ActionKind.REORDER,
    "DUP": ActionKind.DUP,
    "MODIFY": ActionKind.MODIFY,
}

_COUNTER_KINDS = {
    "ASSIGN_CNTR": ActionKind.ASSIGN_CNTR,
    "ENABLE_CNTR": ActionKind.ENABLE_CNTR,
    "DISABLE_CNTR": ActionKind.DISABLE_CNTR,
    "INCR_CNTR": ActionKind.INCR_CNTR,
    "DECR_CNTR": ActionKind.DECR_CNTR,
    "RESET_CNTR": ActionKind.RESET_CNTR,
    "SET_CURTIME": ActionKind.SET_CURTIME,
    "ELAPSED_TIME": ActionKind.ELAPSED_TIME,
}


class _Compiler:
    def __init__(self, script: ScriptAst, scenario: ScenarioAst) -> None:
        self.script = script
        self.scenario = scenario
        self.nodes = self._build_node_table()
        self.full_filters = self._build_filter_table()
        self.counters: List[CounterSpec] = []
        self._counter_ids: Dict[str, int] = {}
        self.terms: List[TermSpec] = []
        self._term_ids: Dict[Tuple, int] = {}
        self.conditions: List[ConditionSpec] = []
        self.actions: List[ActionSpec] = []
        self._referenced_filters: Set[str] = set()

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _build_node_table(self) -> NodeTable:
        entries = []
        for node in self.script.nodes:
            try:
                entries.append(
                    NodeEntry(node.name, MacAddress(node.mac), IpAddress(node.ip))
                )
            except Exception as exc:
                raise FslCompileError(str(exc), node.line) from exc
        if not entries:
            raise FslCompileError("script has no NODE_TABLE")
        return NodeTable(entries)

    def _build_filter_table(self) -> FilterTable:
        declared_vars = set(self.script.variables)
        entries = []
        for filter_def in self.script.filters:
            tuples = []
            for t in filter_def.tuples:
                if isinstance(t.pattern, str):
                    if t.pattern not in declared_vars:
                        raise FslCompileError(
                            f"filter {filter_def.name!r} uses undeclared "
                            f"variable {t.pattern!r}",
                            t.line,
                        )
                    pattern: Union[int, VarRef] = VarRef(t.pattern)
                else:
                    pattern = t.pattern
                tuples.append(FilterTuple(t.offset, t.nbytes, pattern, t.mask))
            entries.append(FilterEntry(filter_def.name, tuple(tuples)))
        return FilterTable(entries)

    def _declare_counters(self) -> None:
        for decl in self.scenario.counters:
            if decl.name in self._counter_ids:
                raise FslCompileError(f"duplicate counter {decl.name!r}", decl.line)
            counter_id = len(self.counters)
            if decl.is_event:
                pkt, src, dst, direction = decl.args
                if pkt not in self.full_filters:
                    raise FslCompileError(
                        f"counter {decl.name!r} references unknown packet type "
                        f"{pkt!r}",
                        decl.line,
                    )
                for node in (src, dst):
                    if node not in self.nodes:
                        raise FslCompileError(
                            f"counter {decl.name!r} references unknown node "
                            f"{node!r}",
                            decl.line,
                        )
                if direction not in ("SEND", "RECV"):
                    raise FslCompileError(
                        f"counter {decl.name!r}: direction must be SEND or RECV",
                        decl.line,
                    )
                direction_enum = Direction(direction)
                home = src if direction_enum is Direction.SEND else dst
                spec = CounterSpec(
                    counter_id=counter_id,
                    name=decl.name,
                    kind=CounterKind.EVENT,
                    home_node=home,
                    pkt_type=pkt,
                    src_node=src,
                    dst_node=dst,
                    direction=direction_enum,
                )
                self._referenced_filters.add(pkt)
            else:
                (node,) = decl.args
                if node not in self.nodes:
                    raise FslCompileError(
                        f"counter {decl.name!r} lives on unknown node {node!r}",
                        decl.line,
                    )
                spec = CounterSpec(
                    counter_id=counter_id,
                    name=decl.name,
                    kind=CounterKind.LOCAL,
                    home_node=node,
                )
            self.counters.append(spec)
            self._counter_ids[decl.name] = counter_id

    # ------------------------------------------------------------------
    # Conditions and terms
    # ------------------------------------------------------------------

    def _operand(self, raw: Union[int, str], line: int) -> Operand:
        if isinstance(raw, int):
            return Operand(constant=raw)
        counter_id = self._counter_ids.get(raw)
        if counter_id is None:
            raise FslCompileError(f"term references unknown counter {raw!r}", line)
        return Operand(counter_id=counter_id)

    def _intern_term(self, ast: TermAst) -> int:
        lhs = self._operand(ast.lhs, ast.line)
        rhs = self._operand(ast.rhs, ast.line)
        op = RelOp(ast.op)
        key = (lhs, op, rhs)
        existing = self._term_ids.get(key)
        if existing is not None:
            return existing
        term_id = len(self.terms)
        if lhs.is_counter and rhs.is_counter:
            mode = TermMode.MIRROR
            home = self.counters[lhs.counter_id].home_node
        elif lhs.is_counter:
            mode = TermMode.LOCAL_BROADCAST
            home = self.counters[lhs.counter_id].home_node
        elif rhs.is_counter:
            mode = TermMode.LOCAL_BROADCAST
            home = self.counters[rhs.counter_id].home_node
        else:
            raise FslCompileError(
                "term compares two constants; fold it by hand", ast.line
            )
        spec = TermSpec(term_id, lhs, op, rhs, mode=mode, home_node=home)
        self.terms.append(spec)
        self._term_ids[key] = term_id
        for operand in (lhs, rhs):
            if operand.is_counter:
                self.counters[operand.counter_id].term_ids.append(term_id)
        return term_id

    def _compile_condition(self, ast: CondAst) -> ConditionExpr:
        if isinstance(ast, TrueAst):
            return ConditionExpr("TRUE")
        if isinstance(ast, TermAst):
            return ConditionExpr("TERM", term_id=self._intern_term(ast))
        if isinstance(ast, NotAst):
            return ConditionExpr("NOT", children=[self._compile_condition(ast.child)])
        if isinstance(ast, AndAst):
            return ConditionExpr(
                "AND", children=[self._compile_condition(c) for c in ast.children]
            )
        if isinstance(ast, OrAst):
            return ConditionExpr(
                "OR", children=[self._compile_condition(c) for c in ast.children]
            )
        raise FslCompileError(f"unknown condition node {type(ast).__name__}")

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _action_home_for_rule(self, expr: ConditionExpr) -> str:
        """Where STOP/FLAG_ERROR of this rule execute: the home of the first

        counter the condition mentions, falling back to the first node.
        """
        for term_id in expr.term_ids():
            term = self.terms[term_id]
            for operand in (term.lhs, term.rhs):
                if operand.is_counter:
                    return self.counters[operand.counter_id].home_node
        return self.nodes.entries[0].name

    def _require_counter(self, args: Tuple, index: int, action: ActionAst) -> int:
        if index >= len(args) or not isinstance(args[index], str):
            raise FslCompileError(
                f"{action.name} needs a counter name", action.line
            )
        name = args[index]
        counter_id = self._counter_ids.get(name)
        if counter_id is None:
            raise FslCompileError(
                f"{action.name} references unknown counter {name!r}", action.line
            )
        return counter_id

    def _require_int(self, args: Tuple, index: int, action: ActionAst, default=None) -> int:
        if index >= len(args):
            if default is not None:
                return default
            raise FslCompileError(f"{action.name} needs an integer", action.line)
        value = args[index]
        if isinstance(value, tuple) and len(value) == 2 and value[0] == "duration":
            return int(value[1])
        if not isinstance(value, int):
            raise FslCompileError(
                f"{action.name}: expected integer, got {value!r}", action.line
            )
        return value

    def _require_duration(self, args: Tuple, index: int, action: ActionAst) -> int:
        """A duration argument in nanoseconds.  Explicit literals (``35ms``,
        ``1sec``) carry their unit; a bare integer means milliseconds, the
        DELAY primitive's natural unit (its floor is the 10 ms jiffy).
        """
        if index >= len(args):
            raise FslCompileError(f"{action.name} needs a duration", action.line)
        value = args[index]
        if isinstance(value, tuple) and len(value) == 2 and value[0] == "duration":
            return int(value[1])
        if isinstance(value, int):
            return value * 1_000_000
        raise FslCompileError(
            f"{action.name}: expected a duration, got {value!r}", action.line
        )

    @staticmethod
    def _fits_control_plane(value: int, action: ActionAst) -> int:
        if value not in _CONTROL_RANGE:
            raise FslCompileError(
                f"{action.name}: {value} is outside the control plane's signed "
                f"64-bit range [-2^63, 2^63)",
                action.line,
            )
        return value

    def _fault_spec(self, action: ActionAst) -> Tuple[str, str, str, Direction]:
        args = action.args
        if len(args) < 4:
            raise FslCompileError(
                f"{action.name} needs (pkt_type, src, dst, SEND|RECV, ...)",
                action.line,
            )
        pkt, src, dst, direction = args[0], args[1], args[2], args[3]
        for value in (pkt, src, dst, direction):
            if not isinstance(value, str):
                raise FslCompileError(
                    f"{action.name}: bad argument {value!r}", action.line
                )
        if pkt not in self.full_filters:
            raise FslCompileError(
                f"{action.name} references unknown packet type {pkt!r}", action.line
            )
        for node in (src, dst):
            if node not in self.nodes:
                raise FslCompileError(
                    f"{action.name} references unknown node {node!r}", action.line
                )
        if direction not in ("SEND", "RECV"):
            raise FslCompileError(
                f"{action.name}: direction must be SEND or RECV", action.line
            )
        self._referenced_filters.add(pkt)
        return pkt, src, dst, Direction(direction)

    def _compile_action(
        self, action: ActionAst, rule_home: str, condition_id: int
    ) -> ActionSpec:
        action_id = len(self.actions)
        name = action.name
        if name in _COUNTER_KINDS:
            kind = _COUNTER_KINDS[name]
            counter_id = self._require_counter(action.args, 0, action)
            value = 0
            if kind in (ActionKind.INCR_CNTR, ActionKind.DECR_CNTR):
                value = self._require_int(action.args, 1, action)
            elif kind is ActionKind.ASSIGN_CNTR:
                value = self._require_int(action.args, 1, action, default=0)
            spec = ActionSpec(
                action_id=action_id,
                kind=kind,
                node=self.counters[counter_id].home_node,
                counter_id=counter_id,
                value=self._fits_control_plane(value, action),
                condition_id=condition_id,
            )
        elif name in _FAULT_KINDS:
            kind = _FAULT_KINDS[name]
            pkt, src, dst, direction = self._fault_spec(action)
            exec_node = src if direction is Direction.SEND else dst
            spec = ActionSpec(
                action_id=action_id,
                kind=kind,
                node=exec_node,
                pkt_type=pkt,
                src_node=src,
                dst_node=dst,
                direction=direction,
                condition_id=condition_id,
            )
            if kind is ActionKind.DELAY:
                spec.delay_ns = self._require_duration(action.args, 4, action)
            elif kind is ActionKind.REORDER:
                spec.reorder_count = self._require_int(action.args, 4, action)
                if spec.reorder_count < 2:
                    raise FslCompileError(
                        "REORDER needs at least 2 packets", action.line
                    )
                if len(action.args) > 5:
                    order = action.args[5]
                    if not isinstance(order, tuple) or not all(
                        isinstance(i, int) for i in order
                    ):
                        raise FslCompileError(
                            "REORDER order must be a [i j k] list", action.line
                        )
                    if sorted(order) != list(range(1, spec.reorder_count + 1)):
                        raise FslCompileError(
                            f"REORDER order must permute 1..{spec.reorder_count}",
                            action.line,
                        )
                    spec.reorder_order = tuple(order)
            elif kind is ActionKind.MODIFY:
                patches = []
                for arg in action.args[4:]:
                    if isinstance(arg, PatchAst):
                        patches.append((arg.offset, arg.data))
                    else:
                        raise FslCompileError(
                            "MODIFY extra arguments must be (offset pattern) "
                            "patches",
                            action.line,
                        )
                spec.patches = tuple(patches)
        elif name in ("FAIL", "CRASH"):
            if len(action.args) != 1 or not isinstance(action.args[0], str):
                raise FslCompileError(
                    f"{name} needs exactly one node name", action.line
                )
            target = action.args[0]
            if target not in self.nodes:
                raise FslCompileError(
                    f"{name} of unknown node {target!r}", action.line
                )
            spec = ActionSpec(
                action_id=action_id,
                kind=ActionKind.FAIL if name == "FAIL" else ActionKind.CRASH,
                node=target,
                target_node=target,
                condition_id=condition_id,
            )
        elif name == "RESTART":
            # RESTART(node [, delay]) executes at the rule's home node —
            # the target is down and cannot run its own reboot — and asks
            # the control node to reboot *target* after *delay*.
            if not action.args or not isinstance(action.args[0], str):
                raise FslCompileError(
                    "RESTART needs a node name (and an optional delay)",
                    action.line,
                )
            target = action.args[0]
            if target not in self.nodes:
                raise FslCompileError(
                    f"RESTART of unknown node {target!r}", action.line
                )
            if len(action.args) > 2:
                raise FslCompileError(
                    "RESTART takes at most (node, delay)", action.line
                )
            delay_ns = (
                self._fits_control_plane(self._require_duration(action.args, 1, action), action)
                if len(action.args) > 1
                else 0
            )
            spec = ActionSpec(
                action_id=action_id,
                kind=ActionKind.RESTART,
                node=rule_home,
                target_node=target,
                delay_ns=delay_ns,
                condition_id=condition_id,
            )
        elif name == "STOP":
            spec = ActionSpec(
                action_id=action_id,
                kind=ActionKind.STOP,
                node=rule_home,
                condition_id=condition_id,
            )
        elif name in ("FLAG_ERROR", "FLAG_ERR"):
            spec = ActionSpec(
                action_id=action_id,
                kind=ActionKind.FLAG_ERROR,
                node=rule_home,
                condition_id=condition_id,
            )
        else:
            raise FslCompileError(f"unknown action {name!r}", action.line)
        self.actions.append(spec)
        return spec

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        self._declare_counters()
        for rule in self.scenario.rules:
            condition_id = len(self.conditions)
            expr = self._compile_condition(rule.condition)
            condition = ConditionSpec(
                condition_id=condition_id,
                expr=expr,
                is_true_rule=isinstance(rule.condition, TrueAst),
                line=rule.line,
            )
            self.conditions.append(condition)
            rule_home = self._action_home_for_rule(expr)
            for action_ast in rule.actions:
                spec = self._compile_action(action_ast, rule_home, condition_id)
                condition.triggers.append((spec.node, spec.action_id))
            for term_id in expr.term_ids():
                self.terms[term_id].condition_ids.append(condition_id)

        # Initial enablement: ENABLE_CNTR targets start disabled.
        enabled_targets = {
            spec.counter_id
            for spec in self.actions
            if spec.kind is ActionKind.ENABLE_CNTR
        }
        for counter in self.counters:
            if counter.kind is CounterKind.EVENT and counter.counter_id in enabled_targets:
                counter.initially_enabled = False

        # Routing: consumers of each term are the nodes evaluating the
        # conditions that use it; wire subscriber sets accordingly.
        for condition in self.conditions:
            eval_nodes = condition.nodes()
            for term_id in condition.expr.term_ids():
                term = self.terms[term_id]
                term.consumer_nodes.update(eval_nodes)
        for term in self.terms:
            if term.mode is TermMode.MIRROR:
                for operand in (term.lhs, term.rhs):
                    if operand.is_counter:
                        counter = self.counters[operand.counter_id]
                        counter.mirror_subscribers.update(
                            node
                            for node in term.consumer_nodes
                            if node != counter.home_node
                        )

        filters = self.full_filters.restricted_to(self._referenced_filters)
        # Build the classification index now, so engines armed with this
        # program never pay index construction on the packet hot path.
        filters.index
        return CompiledProgram(
            scenario_name=self.scenario.name,
            timeout_ns=self.scenario.timeout_ns,
            filters=filters,
            nodes=self.nodes,
            counters=self.counters,
            terms=self.terms,
            conditions=self.conditions,
            actions=self.actions,
            variables=tuple(self.script.variables),
        )


def compile_script(script: ScriptAst, scenario_name: Optional[str] = None) -> CompiledProgram:
    """Compile one scenario of a parsed script into its six tables."""
    return _Compiler(script, script.scenario(scenario_name)).compile()
