"""The rule run-time's generated kernels: coverage of the Fig 7 / Fig 8
scripts, and a differential run against the interpreter in
``runtime_oracle``.

``NodeRuntime`` runs every condition's local actions as one generated
function, built once per (program, node).  Two things are pinned here: the
data path of the paper's "25 actions per match" scripts never leaves that
function (no ``_execute`` call per packet), and whole scenarios — the
shipped ``scenarios/*.fsl`` (the Fig 5 / Fig 6 scripts), the generated
Rether suite, the Fig 7 / Fig 8 scripts — leave the same trail with the
generated kernels as with the oracle that interprets one ``ActionSpec`` at a
time: every hook call and audit line in order, and after every event its
``EventStats``, the full table state (counters, ``enabled``, time stamps,
``term_status``, condition states) and the faults it armed.
"""

import ast
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fig7 import fig7_script
from repro.bench.fig8 import ACTIONS_PER_MATCH, fig8_script
from repro.core import classify as classify_module
from repro.core import engine as engine_module
from repro.core import runtime as runtime_module
from repro.core.autogen import ScriptGenerator, rether_spec
from repro.core.classify import Classifier
from repro.core.fsl import compile_text
from repro.core.runtime import EventStats, NodeRuntime
from repro.core.tables import ActionSpec, Direction
from repro.scripts import canonical_node_table
from repro.sim import ms, seconds
from repro.sweep import SweepSpec, run_script_task
from tests.conftest import counter_spec, counter_value
from tests.core.runtime_oracle import OracleRuntime, StubHooks, recording
from tests.core.test_runtime import HEADER, RecordingHooks

SCENARIOS_DIR = pathlib.Path(__file__).resolve().parents[2] / "scenarios"
RING = ["node1", "node2", "node3", "node4"]


class TestFig7Fig8Coverage:
    @pytest.mark.parametrize(
        "script", [fig7_script(), fig8_script("actions+rll", 25)], ids=["fig7", "fig8"]
    )
    def test_every_rule_is_one_op_program_and_packets_never_execute(self, script, monkeypatch):
        program = compile_text(script)
        executed = []
        monkeypatch.setattr(
            NodeRuntime, "_execute", lambda self, action: executed.append(action)
        )
        crossings = {  # per node: (packet, direction, event counter, its rule's counter)
            "node1": [("fwd_pkt", Direction.SEND, "FwdOut", "Xfo"), ("rev_pkt", Direction.RECV, "RevIn", "Xri")],
            "node2": [("fwd_pkt", Direction.RECV, "FwdIn", "Xfi"), ("rev_pkt", Direction.SEND, "RevOut", "Xro")],
        }
        for node, packets in crossings.items():
            runtime = NodeRuntime(node, program, RecordingHooks())
            runtime.start()
            for pkt_type, direction, counter, rule_counter in packets:
                src, dst = ("node1", "node2") if pkt_type == "fwd_pkt" else ("node2", "node1")
                for packet in (1, 2, 3):
                    stats = runtime.on_classified_packet(pkt_type, src, dst, direction)
                    assert stats.actions_fired == ACTIONS_PER_MATCH
                    # the event counter, then one table touch per action
                    assert stats.counter_touches == 1 + ACTIONS_PER_MATCH
                    assert counter_value(runtime, counter) == 0  # the RESET re-armed the rule
                    assert counter_value(runtime, rule_counter) == packet * (ACTIONS_PER_MATCH - 1)
            local = [c for c in program.conditions if node in c.nodes()]
            assert len(local) == 2
            for condition in local:  # each generated by its first firing, none executes
                fire = runtime.kernels.fire[condition.condition_id]
                assert fire.__name__ == "kernel"
                assert not [v for v in fire.__globals__.values() if isinstance(v, ActionSpec)]
        assert executed == []


def _cases():
    """(id, run_script_task params) for every scenario of the differential."""
    feed = {"kind": "tcp_feed", "chunk": 1024, "interval_ns": 2_000_000}
    cases = [
        (
            "shipped-fig5",
            dict(script=(SCENARIOS_DIR / "fig5_tcp_congestion.fsl").read_text(), seed=11,
                 workload={"kind": "tcp_bulk", "bytes": 48 * 1024}),
        ),
        (
            "shipped-fig6-failover",
            dict(script=(SCENARIOS_DIR / "fig6_rether_failover.fsl").read_text(), seed=5,
                 medium="bus", rether=True, workload=feed, max_time_ns=seconds(30)),
        ),
        (
            "shipped-fig6-crash-restart",
            dict(script=(SCENARIOS_DIR / "fig6_crash_restart.fsl").read_text(), seed=5,
                 medium="bus", rether=True, workload=feed, max_time_ns=seconds(30)),
        ),
        (
            "fig7",
            dict(script=fig7_script(), seed=0, medium="hub", rll=True, inactivity_ns=ms(50),
                 workload={"kind": "tcp_bulk", "bytes": 64 * 1024}),
        ),
        (
            "fig8",
            dict(script=fig8_script("actions+rll", 25), seed=0, rll=True, inactivity_ns=ms(50),
                 workload={"kind": "udp_probes", "count": 20, "port": 7}),
        ),
    ]
    generator = ScriptGenerator(
        rether_spec(RING, [("node1", "node4")]), canonical_node_table(len(RING))
    )
    for name, script in generator.generate_suite().items():
        cases.append(
            (
                f"rether-{name}",
                dict(script=script, seed=3, medium="bus", rether=True, workload=feed,
                     max_time_ns=seconds(30)),
            )
        )
    return cases


CASES = _cases()


def _trail(monkeypatch, runtime_class, params):
    """One scenario under *runtime_class*: (report summary, recorded trail)."""
    log = []
    monkeypatch.setattr(engine_module, "NodeRuntime", recording(runtime_class, log))
    spec = SweepSpec("ops-differential", base_seed=0)
    spec.add("cell", run_script_task, telemetry=True, **params)
    (task,) = spec.tasks()
    return run_script_task(task), log


class TestOpProgramsMatchThePerActionOracle:
    @pytest.mark.parametrize("params", [c[1] for c in CASES], ids=[c[0] for c in CASES])
    def test_same_trail(self, monkeypatch, params):
        summary, trail = _trail(monkeypatch, NodeRuntime, params)
        oracle_summary, oracle_trail = _trail(monkeypatch, OracleRuntime, params)
        assert len(trail) > 10  # the scenario really exercised the run-time
        for index, (ours, theirs) in enumerate(zip(trail, oracle_trail)):
            assert ours == theirs, f"first divergence at trail entry {index}"
        assert len(trail) == len(oracle_trail)
        assert summary == oracle_summary


#: Every action kind, on plain counters (P, T) and on counters that feed
#: local terms (A, B, Q) or a mirrored term (M vs the remote R).
ALL_KINDS = HEADER + """
SCENARIO every_op
  A: (pkt, node2, node1, RECV)
  B: (pkt, node1, node2, SEND)
  M: (pkt, node1, node1, SEND)
  R: (pkt, node2, node2, RECV)
  P: (node1)
  Q: (node1)
  T: (node1)
  (TRUE) >> ASSIGN_CNTR( P, 3 ); SET_CURTIME( T );
  ((A = 1)) >> RESET_CNTR( A ); INCR_CNTR( P, 2 ); ASSIGN_CNTR( P, 7 ); DECR_CNTR( P, 1 );
        RESET_CNTR( P ); INCR_CNTR( Q, 1 ); ENABLE_CNTR( M );
  ((B >= 2)) >> ELAPSED_TIME( T ); DECR_CNTR( Q, 2 ); ASSIGN_CNTR( B, 0 ); SET_CURTIME( T );
  ((Q > 1)) >> FLAG_ERROR; ASSIGN_CNTR( Q, 0 );
  ((Q < 0)) >> STOP; RESET_CNTR( Q ); FAIL( node1 );
  ((M > R)) >> RESTART( node2, 10ms ); RESET_CNTR( M ); DISABLE_CNTR( M );
  ((T > 40)) >> INCR_CNTR( P, 1 ); CRASH( node1 ); INCR_CNTR( P, 100 );
END
"""

#: The lock-step cases beyond one op per action, all at node1: B feeds a
#: counter-vs-counter term mirrored to node2 (B > R, pushed on every
#: change) and one evaluated here from the mirrored remote R (B < R); A
#: feeds two terms of one compound condition; ELAPSED_TIME writes T, which
#: feeds a term; (R > 2) is a remote term whose status node1 consumes; and
#: a rule CRASHes between two of its actions.
EDGE_CASES = HEADER + """
SCENARIO edge_cases
  A: (pkt, node2, node1, RECV)
  B: (pkt, node1, node2, SEND)
  R: (pkt, node2, node2, RECV)
  P: (node1)
  T: (node1)
  (TRUE) >> SET_CURTIME( T );
  ((B > R)) >> INCR_CNTR( R, 1 );
  ((B < R)) >> INCR_CNTR( P, 2 );
  ((A >= 2) AND (A != 3)) >> ELAPSED_TIME( T ); INCR_CNTR( P, 1 );
  ((T > 5)) >> INCR_CNTR( P, 10 );
  ((R > 2)) >> INCR_CNTR( P, 5 ); RESET_CNTR( A );
  ((P >= 12)) >> INCR_CNTR( P, 1 ); CRASH( node1 ); INCR_CNTR( P, 100 );
END
"""

STEPS = st.lists(
    st.one_of(
        st.sampled_from([("recv",), ("send",), ("mirror",)]),
        st.tuples(st.just("wait"), st.integers(0, 30)),
        st.tuples(st.just("remote"), st.integers(0, 3)),
        st.tuples(st.just("status"), st.booleans()),
    ),
    max_size=50,
)


def _trails(steps, script=ALL_KINDS):
    """*steps* driven into node1 under the generated kernels and under the
    oracle: the two recorded trails."""
    program = compile_text(script)
    remote = counter_spec(program, "R").counter_id
    remote_terms = [
        t.term_id for t in program.terms if t.lhs.counter_id == remote and t.rhs.constant is not None
    ]
    trails = []
    for runtime_class in (NodeRuntime, OracleRuntime):
        log, hooks = [], StubHooks()
        runtime = recording(runtime_class, log)("node1", program, hooks)
        runtime.audit = lambda kind, detail: None
        runtime.start()
        for step in steps:
            if runtime.crashed:
                break
            if step[0] == "recv":
                runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
            elif step[0] == "send":
                runtime.on_classified_packet("pkt", "node1", "node2", Direction.SEND)
            elif step[0] == "mirror":
                runtime.on_classified_packet("pkt", "node1", "node1", Direction.SEND)
            elif step[0] == "wait":
                hooks.time += step[1] * 1_000_000
            elif step[0] == "remote":
                runtime.on_counter_update(remote, step[1])
            else:
                for term_id in remote_terms:
                    runtime.on_term_status(term_id, step[1])
        trails.append(log)
    return trails


def _events(trail):
    return [entry for entry in trail if entry[1] == "event"]


def _counter(trail, script, name):
    """A counter's value after the last event of *trail*."""
    return _events(trail)[-1][3][counter_spec(compile_text(script), name).counter_id]


def _generated_sources(monkeypatch):
    """Every source the run-time and the classifier generate from now on."""
    sources = []
    define = classify_module.define

    def capture(source, namespace):
        sources.append(source)
        return define(source, namespace)

    for module in (runtime_module, classify_module):
        monkeypatch.setattr(module, "define", capture)
    return sources


class TestEveryOpInLockstep:
    def test_the_script_compiles_to_every_op(self, monkeypatch):
        sources = _generated_sources(monkeypatch)
        runtime = NodeRuntime("node1", compile_text(ALL_KINDS), StubHooks())
        for fire in runtime.kernels.fire:  # generate every rule (run on a throwaway runtime)
            if fire is not None:
                fire(runtime, EventStats())
        source = "\n".join(sources)
        for form in (
            r"values\[\d+\] \+= -?\d+",  # a write to a counter nothing observes
            r"values\[\d+\] = -?\d+",
            r"v = values\[\d+\] \+ -?\d+\n    values\[\d+\] = v",  # a write that cascades
            r"v = -?\d+\n    values\[\d+\] = v",
            r"enabled\[\d+\] = True",
            r"enabled\[\d+\] = False",
            r"timestamps\[\d+\] = hooks\.now\(\)",
            r"v = \(hooks\.now\(\) - timestamps\[\d+\]\) // 1000000",
        ):
            assert re.search(form, source), form
        executed = {
            value.kind.name
            for fire in runtime.kernels.fire
            if fire is not None
            for value in fire.__globals__.values()
            if isinstance(value, ActionSpec)
        }
        assert executed == {"FLAG_ERROR", "STOP", "FAIL", "RESTART", "CRASH"}
        assert source.count("rt._execute(") == source.count("if rt.crashed:") == 5

    def test_a_crash_mid_rule_counts_only_the_actions_that_ran(self):
        ours, theirs = _trails([("wait", 41), ("send",), ("send",)])
        assert ours == theirs
        stats, values, crashed = ours[-1][2], ours[-1][3], ours[-1][8]
        program = compile_text(ALL_KINDS)
        assert crashed
        # the (B >= 2) rule's four actions, the (Q < 0) rule's three it set
        # off, then two of the CRASH rule's three
        assert stats[1] == 4 + 3 + 2
        assert values[counter_spec(program, "P").counter_id] == 3 + 1  # never the +100

    @settings(max_examples=200, deadline=None)
    @given(steps=STEPS)
    def test_same_trail_as_the_oracle(self, steps):
        ours, theirs = _trails(steps)
        assert ours == theirs

    @settings(max_examples=200, deadline=None)
    @given(steps=STEPS)
    def test_edge_cases_leave_the_oracle_trail(self, steps):
        ours, theirs = _trails(steps, EDGE_CASES)
        assert ours == theirs

    def test_a_mirrored_counter_vs_counter_term(self):
        ours, theirs = _trails([("send",), ("remote", 5), ("send",)], EDGE_CASES)
        assert ours == theirs
        program = compile_text(EDGE_CASES)
        b = counter_spec(program, "B").counter_id
        pushes = [entry[2] for entry in ours if entry[1] == "send_counter_update"]
        assert pushes == [(b, 1, ("node2",)), (b, 2, ("node2",))]  # B > R, evaluated at node2
        assert _counter(ours, EDGE_CASES, "P") == 2  # B < R, from the mirrored R
        # a bump of B writes one counter and evaluates the one term it feeds here
        assert _events(ours)[1][2][:3] == (1, 0, 1)

    def test_one_counter_feeding_two_terms(self):
        ours, theirs = _trails([("recv",), ("recv",), ("recv",)], EDGE_CASES)
        assert ours == theirs
        events = _events(ours)
        # A's two terms each time, plus T's and P's when the rule writes them
        assert [event[2][2] for event in events[1:]] == [2, 2 + 2, 2]
        assert _counter(ours, EDGE_CASES, "P") == 1  # the AND held once, at A = 2

    def test_an_elapsed_time_cascade(self):
        ours, theirs = _trails([("wait", 6), ("recv",), ("recv",)], EDGE_CASES)
        assert ours == theirs
        assert _counter(ours, EDGE_CASES, "T") == 6
        assert _counter(ours, EDGE_CASES, "P") == 1 + 10  # T > 5 fired off the write

    def test_a_crash_mid_rule_after_a_remote_status(self):
        steps = [("wait", 6), ("recv",), ("recv",), ("status", True), ("recv",)]
        ours, theirs = _trails(steps, EDGE_CASES)
        assert ours == theirs
        last = _events(ours)[-1]
        assert last[8] and last[2][1] == 2 + 2  # (R > 2)'s two actions, two of the CRASH rule's
        assert _counter(ours, EDGE_CASES, "P") == 11 + 5 + 1  # never the +100


#: Packet, counter, VAR and node names that are also the names generated
#: code uses for its locals and parameters.
COLLIDING = """
VAR b, c;
FILTER_TABLE
  values: (34 2 0x6000), (36 2 0x4000), (38 4 b), (47 1 0x10 0x10)
  data:   (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
  n:      (34 2 0x4000), (36 2 0x6000), (42 4 c), (47 1 0x10 0x10)
  stats:  (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
NODE_TABLE
  rt 02:00:00:00:00:01 192.168.1.1
  hooks 02:00:00:00:00:02 192.168.1.2
END
SCENARIO kernel
  values: (values, rt, hooks, SEND)
  data:   (data, rt, hooks, SEND)
  stats:  (stats, hooks, rt, RECV)
  rt:     (data, rt, hooks, RECV)
  n:      (rt)
  new:    (hooks)
  ((data = 5)) >> RESET_CNTR( data ); INCR_CNTR( n, 1 );
  ((n >= 3)) >> FLAG_ERROR; RESET_CNTR( n ); SET_CURTIME( n );
  ((rt > stats)) >> INCR_CNTR( new, 1 );
  ((new = 1)) >> DROP data, rt, hooks, RECV;
END
"""

#: What generated source may hold besides int, bool and None constants: the
#: operators of a fixed table, and names that are either its own
#: locals, parameters and builtins or namespace bindings (a letter and a
#: number).
OPERATORS = (
    ast.Gt, ast.Lt, ast.GtE, ast.LtE, ast.Eq, ast.NotEq, ast.IsNot,
    ast.Add, ast.Sub, ast.BitAnd, ast.FloorDiv, ast.USub, ast.And, ast.Or,
)  # fmt: skip
VOCABULARY = {
    "kernel", "rt", "stats", "initial", "values", "enabled", "timestamps", "term_status",
    "pending", "hooks", "new", "v", "list",
    "match", "c", "data", "n", "b", "len", "from_bytes", "BIG", "MISS",
}  # fmt: skip
ATTRIBUTES = {
    "values", "enabled", "timestamps", "term_status", "pending_conditions", "hooks",
    "get", "add", "now", "send_term_status", "send_counter_update", "_execute", "crashed",
    "counter_touches", "actions_fired", "terms_evaluated",
    "entries_examined_total", "_match", "_matched",
}  # fmt: skip


def _check_hygiene(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) in (int, bool), (node.value, source)
        elif isinstance(node, ast.Name):
            assert node.id in VOCABULARY or re.fullmatch(r"[A-Z]\d+", node.id), (node.id, source)
        elif isinstance(node, ast.Attribute):
            assert node.attr in ATTRIBUTES, (node.attr, source)
        elif isinstance(node, (ast.operator, ast.unaryop, ast.cmpop, ast.boolop)):
            assert isinstance(node, OPERATORS), (node, source)


class TestGeneratedCodeHygiene:
    def test_source_holds_ints_bools_and_a_fixed_vocabulary(self, monkeypatch):
        """Every function generated for the colliding script, and for the
        every-op and edge-case scripts: nothing the script names is in it."""
        sources = _generated_sources(monkeypatch)
        for script in (COLLIDING, ALL_KINDS, EDGE_CASES):
            program = compile_text(script)
            for entry in program.nodes.entries:
                runtime = NodeRuntime(entry.name, program, StubHooks())
                kernels = runtime.kernels
                for evaluate in kernels.terms:
                    if evaluate is not None:
                        evaluate(runtime, EventStats(), False)
                for probe in (kernels.send_probe, kernels.recv_probe):
                    for bump, _ in list(probe.values()):
                        if bump is not None:
                            bump(runtime, EventStats())
                for fire in kernels.fire:
                    if fire is not None:
                        fire(runtime, EventStats())
            index = program.filters.index
            for value in list(index.matchers):
                index.matchers[value](Classifier(program.filters), value)
            index.residual_matcher(Classifier(program.filters), b"")
        assert len(sources) > 30
        for source in sources:
            _check_hygiene(source)

    def test_colliding_names_leave_the_oracle_trail(self, monkeypatch):
        params = dict(script=COLLIDING, seed=0, workload={"kind": "tcp_bulk", "bytes": 32 * 1024})
        summary, trail = _trail(monkeypatch, NodeRuntime, params)
        oracle_summary, oracle_trail = _trail(monkeypatch, OracleRuntime, params)
        assert summary == oracle_summary
        assert trail == oracle_trail
        assert summary["errors"] and summary["final_counters"]["new"] >= 1
        assert summary["engine_stats"]["hooks"]["packets_dropped"] >= 1
