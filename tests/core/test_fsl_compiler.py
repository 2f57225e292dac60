"""Tests for the FSL compiler: six tables plus distribution metadata."""

import pytest

from repro.core.fsl import compile_text
from repro.core.tables import (
    ActionKind,
    CounterKind,
    Direction,
    TermMode,
    VarRef,
)
from repro.errors import FslCompileError

HEADER = """
FILTER_TABLE
  pkt_a: (12 2 0x0800)
  pkt_b: (12 2 0x9900), (14 2 0x0001)
END
NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
  node3 02:00:00:00:00:03 192.168.1.3
END
"""


def compile_scenario(body: str):
    return compile_text(HEADER + f"SCENARIO t {body} END")


class TestCounters:
    def test_event_counter_home_follows_direction(self):
        program = compile_scenario(
            """
            R: (pkt_a, node1, node2, RECV)
            S: (pkt_a, node1, node2, SEND)
            """
        )
        assert program.counter_by_name("R").home_node == "node2"
        assert program.counter_by_name("S").home_node == "node1"

    def test_local_counter(self):
        program = compile_scenario("X: (node3)")
        spec = program.counter_by_name("X")
        assert spec.kind is CounterKind.LOCAL
        assert spec.home_node == "node3"
        assert spec.initially_enabled

    def test_enable_target_starts_disabled(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            B: (pkt_a, node1, node2, SEND)
            ((A = 1)) >> ENABLE_CNTR( B );
            """
        )
        assert program.counter_by_name("A").initially_enabled
        assert not program.counter_by_name("B").initially_enabled

    def test_duplicate_counter_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (node1) X: (node2)")

    def test_unknown_packet_type_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (nope, node1, node2, RECV)")

    def test_unknown_node_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (pkt_a, node1, node9, RECV)")

    def test_bad_direction_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (pkt_a, node1, node2, SIDEWAYS)")


class TestTermsAndRouting:
    def test_counter_vs_const_is_local_broadcast(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A > 5)) >> FAIL( node3 );
            """
        )
        (term,) = program.terms
        assert term.mode is TermMode.LOCAL_BROADCAST
        assert term.home_node == "node2"
        # FAIL executes on node3, so node3 consumes the term's status.
        assert "node3" in term.consumer_nodes

    def test_counter_vs_counter_is_mirror(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            B: (pkt_a, node1, node3, RECV)
            ((A > B)) >> FLAG_ERROR;
            """
        )
        (term,) = program.terms
        assert term.mode is TermMode.MIRROR
        # The rule home is A's home (node2); B's value must be mirrored there.
        b_spec = program.counter_by_name("B")
        assert "node2" in b_spec.mirror_subscribers

    def test_terms_interned_across_rules(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A = 1)) >> FLAG_ERROR;
            ((A = 1) && (A > 0)) >> STOP;
            """
        )
        # (A = 1) appears twice but exists once; plus (A > 0).
        assert len(program.terms) == 2

    def test_constant_term_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (node1) ((3 > 2)) >> STOP;")

    def test_undeclared_counter_in_term_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("((Ghost = 1)) >> STOP;")


class TestActions:
    def test_counter_action_executes_at_counter_home(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            X: (node3)
            ((A = 1)) >> INCR_CNTR( X, 5 );
            """
        )
        (action,) = [a for a in program.actions if a.kind is ActionKind.INCR_CNTR]
        assert action.node == "node3"
        assert action.value == 5

    def test_fault_action_site_follows_direction(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A = 1)) >> DROP pkt_a, node1, node2, RECV;
            ((A = 2)) >> DROP pkt_a, node1, node2, SEND;
            """
        )
        drops = [a for a in program.actions if a.kind is ActionKind.DROP]
        assert drops[0].node == "node2"
        assert drops[1].node == "node1"

    def test_delay_bare_int_is_milliseconds(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A = 1)) >> DELAY pkt_a, node1, node2, RECV, 35;
            """
        )
        (delay,) = [a for a in program.actions if a.kind is ActionKind.DELAY]
        assert delay.delay_ns == 35_000_000

    def test_reorder_validation(self):
        with pytest.raises(FslCompileError):
            compile_scenario(
                """
                A: (pkt_a, node1, node2, RECV)
                ((A = 1)) >> REORDER pkt_a, node1, node2, RECV, 3, [1 1 2];
                """
            )
        with pytest.raises(FslCompileError):
            compile_scenario(
                """
                A: (pkt_a, node1, node2, RECV)
                ((A = 1)) >> REORDER pkt_a, node1, node2, RECV, 1;
                """
            )

    def test_stop_and_flag_execute_at_rule_home(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A = 1)) >> STOP;
            """
        )
        (stop,) = [a for a in program.actions if a.kind is ActionKind.STOP]
        assert stop.node == "node2"

    def test_fail_unknown_node_rejected(self):
        with pytest.raises(FslCompileError):
            compile_scenario("X: (node1) ((X = 1)) >> FAIL( node9 );")

    def test_condition_backlink(self):
        program = compile_scenario(
            """
            A: (pkt_a, node1, node2, RECV)
            ((A = 1)) >> FLAG_ERROR;
            """
        )
        flag = [a for a in program.actions if a.kind is ActionKind.FLAG_ERROR][0]
        condition = program.conditions[flag.condition_id]
        assert (flag.node, flag.action_id) in condition.triggers


class TestFilterPruning:
    def test_unreferenced_filters_pruned(self):
        program = compile_scenario("A: (pkt_b, node1, node2, RECV)")
        assert [e.name for e in program.filters.entries] == ["pkt_b"]

    def test_fault_reference_keeps_filter(self):
        program = compile_scenario(
            """
            A: (pkt_b, node1, node2, RECV)
            ((A = 1)) >> DROP pkt_a, node1, node2, RECV;
            """
        )
        assert [e.name for e in program.filters.entries] == ["pkt_a", "pkt_b"]

    def test_order_preserved_after_pruning(self):
        program = compile_scenario(
            """
            B: (pkt_b, node1, node2, RECV)
            A: (pkt_a, node1, node2, RECV)
            """
        )
        assert [e.name for e in program.filters.entries] == ["pkt_a", "pkt_b"]


class TestVarFilters:
    def test_var_pattern_compiles(self):
        program = compile_text(
            """
            VAR Seq;
            FILTER_TABLE
              rt: (38 4 Seq)
            END
            NODE_TABLE
              node1 02:00:00:00:00:01 192.168.1.1
            END
            SCENARIO t
              A: (rt, node1, node1, RECV)
            END
            """
        )
        pattern = program.filters.get("rt").tuples[0].pattern
        assert pattern == VarRef("Seq")

    def test_undeclared_var_rejected(self):
        with pytest.raises(FslCompileError):
            compile_text(
                """
                FILTER_TABLE
                  rt: (38 4 Mystery)
                END
                NODE_TABLE
                  node1 02:00:00:00:00:01 192.168.1.1
                END
                SCENARIO t
                  A: (rt, node1, node1, RECV)
                END
                """
            )


class TestProgramShape:
    def test_fig6_table_sizes(self):
        from repro.scripts import rether_failover_script

        nodes = """
NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
  node3 02:00:00:00:00:03 192.168.1.3
  node4 02:00:00:00:00:04 192.168.1.4
END
"""
        program = compile_text(rether_failover_script(nodes))
        sizes = program.table_sizes()
        assert sizes == {
            "filters": 2,  # tr_token_ack is declared but unreferenced: pruned
            "nodes": 4,
            "counters": 5,
            "terms": 6,
            "conditions": 6,
            "actions": 8,
        }
        assert program.timeout_ns == 10**9

    def test_missing_node_table_rejected(self):
        with pytest.raises(FslCompileError):
            compile_text("SCENARIO t END")


class TestCrashRestart:
    """The crash/restart lifecycle actions (docs/NODE_LIFECYCLE.md)."""

    def _compile(self, rule):
        return compile_scenario(
            f"""
            R: (pkt_a, node1, node2, RECV)
            {rule}
            """
        )

    def _action(self, program, kind):
        (spec,) = [a for a in program.actions if a.kind is kind]
        return spec

    def test_crash_executes_at_the_target(self):
        program = self._compile("((R = 1)) >> CRASH( node3 );")
        spec = self._action(program, ActionKind.CRASH)
        assert spec.node == "node3"
        assert spec.target_node == "node3"

    def test_restart_executes_at_the_rule_home(self):
        """The target is down at restart time, so the action runs at the
        rule's home node, which relays the request to control."""
        program = self._compile(
            "((R = 1)) >> CRASH( node3 ); RESTART( node3, 250 );"
        )
        spec = self._action(program, ActionKind.RESTART)
        assert spec.node == "node2"  # R is counted at node2 (RECV)
        assert spec.target_node == "node3"
        assert spec.delay_ns == 250_000_000  # bare integers are ms

    def test_restart_delay_defaults_to_zero(self):
        program = self._compile("((R = 1)) >> RESTART( node2 );")
        assert self._action(program, ActionKind.RESTART).delay_ns == 0

    def test_restart_delay_accepts_units(self):
        program = self._compile("((R = 1)) >> RESTART( node2, 2sec );")
        assert self._action(program, ActionKind.RESTART).delay_ns == 2 * 10**9

    def test_restart_of_unknown_node_rejected(self):
        with pytest.raises(FslCompileError):
            self._compile("((R = 1)) >> RESTART( node9 );")

    def test_restart_extra_args_rejected(self):
        with pytest.raises(FslCompileError):
            self._compile("((R = 1)) >> RESTART( node2, 1, 2 );")

    def test_crash_needs_exactly_one_node(self):
        with pytest.raises(FslCompileError):
            self._compile("((R = 1)) >> CRASH( node2, node3 );")


class TestControlPlaneRange:
    """Counter operands and restart delays travel in the control plane's
    signed 64-bit ``b`` field; a literal outside it is a compile error
    naming its line, not an OverflowError mid-run."""

    @pytest.mark.parametrize(
        "action",
        [
            "ASSIGN_CNTR( X, 9223372036854775808 )",
            "INCR_CNTR( X, 9223372036854775808 )",
            "DECR_CNTR( X, 99999999999999999999 )",
            "RESTART( node2, 9223372036855 )",  # bare integers are ms
        ],
    )
    def test_a_literal_past_2_63_names_its_line(self, action):
        with pytest.raises(FslCompileError, match=r"signed 64-bit.*\(line 12,") as failure:
            compile_scenario(f"X: (node1)\n(TRUE) >> {action};\n")
        assert failure.value.line == 12

    @staticmethod
    def _mirrored(value):
        """A node2 rule reading A, which lives on node1: A is mirrored to
        node2 over the control plane."""
        from repro.core.testbed import Testbed

        tb = Testbed(seed=1)
        hosts = [tb.add_host(f"node{i}") for i in (1, 2, 3)]
        tb.add_switch("sw0")
        tb.connect("sw0", *hosts)
        tb.install_virtualwire(control="node1")
        script = HEADER + f"""SCENARIO big
  A: (node1)
  B: (node2)
  (TRUE) >> ASSIGN_CNTR( A, {value} );
  ((B < A)) >> STOP;
END
"""
        return tb.run_scenario(script)

    def test_a_mirrored_counter_at_the_bound_runs(self):
        report = self._mirrored(2**63 - 1)
        assert report.passed and report.stop_node == "node2"

    def test_a_mirrored_counter_past_the_bound_is_refused_before_the_run(self):
        with pytest.raises(FslCompileError, match=r"ASSIGN_CNTR: 9223372036854775808 .*\(line 14,"):
            self._mirrored(2**63)
