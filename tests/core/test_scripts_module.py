"""Tests for the shipped paper-script templates."""

from repro.core.fsl import compile_text
from repro.core.tables import ActionKind
from repro.scripts import (
    RETHER_FILTER_TABLE,
    TCP_FILTER_TABLE,
    rether_failover_script,
    tcp_congestion_script,
)

NODES_2 = """NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END"""

NODES_4 = """NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
  node3 02:00:00:00:00:03 192.168.1.3
  node4 02:00:00:00:00:04 192.168.1.4
END"""


class TestTcpScript:
    def test_compiles(self):
        program = compile_text(tcp_congestion_script(NODES_2))
        assert program.scenario_name == "TCP_SS_CA_algo"
        assert program.table_sizes()["conditions"] == 8

    def test_paper_filter_offsets_present(self):
        assert "(34 2 0x6000)" in TCP_FILTER_TABLE
        assert "(47 1 0x10 0x10)" in TCP_FILTER_TABLE
        assert "(47 1 0x12 0x12)" in TCP_FILTER_TABLE

    def test_retransmission_filters_pruned_but_parseable(self):
        """The VAR-based rt filters from Fig 2 ship in the table; the

        scenario does not reference them, so the compiler prunes them
        rather than letting them steal first-match classification.
        """
        program = compile_text(tcp_congestion_script(NODES_2))
        names = [e.name for e in program.filters.entries]
        assert "TCP_data_rt1" not in names
        assert names == ["TCP_synack", "TCP_data", "TCP_ack"]

    def test_corrections_applied(self):
        script = tcp_congestion_script(NODES_2)
        assert "ASSIGN_CNTR( CanTx, 1 )" in script
        assert "INCR_CNTR( CanTx, 2 )" in script  # slow-start credit

    def test_fault_is_a_single_drop_rule(self):
        program = compile_text(tcp_congestion_script(NODES_2))
        drops = [a for a in program.actions if a.kind is ActionKind.DROP]
        assert len(drops) == 1
        assert drops[0].node == "node1"  # RECV side

    def test_no_stop_expected(self):
        program = compile_text(tcp_congestion_script(NODES_2))
        assert not any(a.kind is ActionKind.STOP for a in program.actions)
        assert program.timeout_ns == 0  # ends by quiescence


class TestRetherScript:
    def test_compiles_with_default_threshold(self):
        program = compile_text(rether_failover_script(NODES_4))
        assert program.scenario_name == "Test_Single_Node_Failure"
        assert program.timeout_ns == 10**9

    def test_threshold_parameterised(self):
        script = rether_failover_script(NODES_4, data_threshold=42)
        assert "CNT_DATA > 42" in script
        compile_text(script)

    def test_rether_ethertype_in_filters(self):
        assert "(12 2 0x9900)" in RETHER_FILTER_TABLE
        assert "(14 2 0x0001)" in RETHER_FILTER_TABLE
        assert "(14 2 0x0010)" in RETHER_FILTER_TABLE

    def test_fail_targets_node3(self):
        program = compile_text(rether_failover_script(NODES_4))
        (fail,) = [a for a in program.actions if a.kind is ActionKind.FAIL]
        assert fail.node == "node3"

    def test_stop_and_error_rules_present(self):
        program = compile_text(rether_failover_script(NODES_4))
        kinds = [a.kind for a in program.actions]
        assert ActionKind.STOP in kinds
        assert ActionKind.FLAG_ERROR in kinds
