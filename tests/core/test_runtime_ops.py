"""The rule run-time's op programs: coverage of the Fig 7 / Fig 8 scripts,
and a differential run against the per-action oracle in ``runtime_oracle``.

``NodeRuntime`` compiles every condition's local actions to one op program
at install time.  Two things are pinned here: the data path of the paper's
"25 actions per match" scripts never leaves that program (no ``_execute``
call per packet), and whole scenarios — the shipped ``scenarios/*.fsl``
(the Fig 5 / Fig 6 scripts), the generated Rether suite, the Fig 7 / Fig 8
scripts — leave the same trail with op programs as with the oracle that
interprets one ``ActionSpec`` at a time: every hook call and audit line in
order, and after every event its ``EventStats`` and the full table state
(counters, ``enabled``, time stamps, ``term_status``, condition states).
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fig7 import fig7_script
from repro.bench.fig8 import ACTIONS_PER_MATCH, fig8_script
from repro.core import engine as engine_module
from repro.core.autogen import ScriptGenerator, rether_spec
from repro.core.fsl import compile_text
from repro.core.runtime import _OP_EXEC, NodeRuntime
from repro.core.tables import Direction
from repro.scripts import canonical_node_table
from repro.sim import ms, seconds
from repro.sweep import SweepSpec, run_script_task
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
            local = [c for c in program.conditions if node in c.nodes()]
            assert len(local) == 2
            for condition in local:
                ops = runtime._condition_ops[condition.condition_id]
                assert len(ops) == ACTIONS_PER_MATCH
                assert all(op != _OP_EXEC for op, _, _ in ops)
            runtime.start()
            for pkt_type, direction, counter, rule_counter in packets:
                src, dst = ("node1", "node2") if pkt_type == "fwd_pkt" else ("node2", "node1")
                for packet in (1, 2, 3):
                    stats = runtime.on_classified_packet(pkt_type, src, dst, direction)
                    assert stats.actions_fired == ACTIONS_PER_MATCH
                    # the event counter, then one table touch per action
                    assert stats.counter_touches == 1 + ACTIONS_PER_MATCH
                    assert runtime.counter_value(counter) == 0  # the RESET re-armed the rule
                    assert runtime.counter_value(rule_counter) == packet * (ACTIONS_PER_MATCH - 1)
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
    spec.add("cell", run_script_task, audit=True, **params)
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

STEPS = st.lists(
    st.one_of(
        st.sampled_from([("recv",), ("send",), ("mirror",)]),
        st.tuples(st.just("wait"), st.integers(0, 30)),
        st.tuples(st.just("remote"), st.integers(0, 3)),
    ),
    max_size=50,
)


class TestEveryOpInLockstep:
    def test_the_script_compiles_to_every_op(self):
        runtime = NodeRuntime("node1", compile_text(ALL_KINDS), StubHooks())
        ops = [op for program in runtime._condition_ops.values() for op in program]
        assert {op for op, _, _ in ops} == set(range(_OP_EXEC + 1))
        assert {action.kind.name for op, _, action in ops if op == _OP_EXEC} == {
            "SET_CURTIME", "ELAPSED_TIME", "FLAG_ERROR", "STOP", "FAIL", "RESTART", "CRASH",
        }  # fmt: skip

    def test_a_crash_mid_rule_counts_only_the_actions_that_ran(self):
        trail = self._trails([("wait", 41), ("send",), ("send",)])[0]
        stats, values, crashed = trail[-1][2], trail[-1][3], trail[-1][-1]
        program = compile_text(ALL_KINDS)
        assert crashed
        # the (B >= 2) rule's four actions, the (Q < 0) rule's three it set
        # off, then two of the CRASH rule's three
        assert stats[1] == 4 + 3 + 2
        assert values[program.counter_by_name("P").counter_id] == 3 + 1  # never the +100

    @settings(max_examples=200, deadline=None)
    @given(steps=STEPS)
    def test_same_trail_as_the_oracle(self, steps):
        ours, theirs = self._trails(steps)
        assert ours == theirs

    @staticmethod
    def _trails(steps):
        program = compile_text(ALL_KINDS)
        remote = program.counter_by_name("R").counter_id
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
                else:
                    runtime.on_counter_update(remote, step[1])
            trails.append(log)
        return trails
