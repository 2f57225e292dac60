"""Tests for the benchmark workload builders (repro.bench)."""

import pytest

from repro.bench.fig7 import Fig7Point, fig7_script, render_table as render_fig7
from repro.bench.fig8 import (
    ACTIONS_PER_MATCH,
    Fig8Point,
    build_script,
    fig8_script,
    render_table as render_fig8,
)
from repro.bench.frames import measure_hotpath_point
from repro.bench.harness import (
    RECEIVER_PORT,
    SENDER_PORT,
    percent_increase,
    two_node_testbed,
)
from repro.core.fsl import compile_text
from repro.core.tables import ActionKind

NODE_TABLE = """NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END"""


class TestBuildScript:
    @pytest.mark.parametrize("traffic", ["udp", "tcp"])
    @pytest.mark.parametrize("n_filters", [2, 10, 25])
    def test_compiles_with_exact_filter_count(self, traffic, n_filters):
        script = build_script(NODE_TABLE, n_filters, with_actions=False, traffic=traffic)
        program = compile_text(script)
        assert len(program.filters) == n_filters

    def test_live_filters_last(self):
        program = compile_text(build_script(NODE_TABLE, 25, with_actions=False))
        names = [e.name for e in program.filters.entries]
        assert names[-2:] == ["fwd_pkt", "rev_pkt"]
        assert all(name.startswith("decoy") for name in names[:-2])

    def test_action_mode_fires_25_per_hook(self):
        program = compile_text(build_script(NODE_TABLE, 5, with_actions=True))
        # Four rules (one per hook crossing), each with 25 actions.
        rule_conditions = [c for c in program.conditions if not c.is_true_rule]
        assert len(rule_conditions) == 4
        for condition in rule_conditions:
            assert len(condition.triggers) == ACTIONS_PER_MATCH

    def test_minimum_filter_count(self):
        with pytest.raises(ValueError):
            build_script(NODE_TABLE, 1, with_actions=False)

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError):
            build_script(NODE_TABLE, 5, with_actions=False, traffic="carrier-pigeon")

    def test_tcp_mode_uses_paper_ports(self):
        script = build_script(NODE_TABLE, 2, with_actions=False, traffic="tcp")
        assert "(34 2 0x6000)" in script and "(34 2 0x4000)" in script


class TestHarness:
    def test_two_node_testbed_shapes(self):
        tb, n1, n2 = two_node_testbed(install_vw=True, rll=True)
        assert set(tb.engines) == {"node1", "node2"}
        assert set(tb.rll_layers) == {"node1", "node2"}
        names = [l.name for l in n1.chain.layers]
        assert names.index("rll") < names.index("virtualwire")

    def test_baseline_has_no_engine(self):
        tb, n1, n2 = two_node_testbed(install_vw=False)
        assert tb.engines == {}
        assert len(n1.chain.layers) == 2  # driver + demux

    @pytest.mark.parametrize("medium", ["switch", "hub", "link"])
    def test_media_choices(self, medium):
        tb, n1, n2 = two_node_testbed(medium=medium, install_vw=False)
        assert n1.nic.medium is n2.nic.medium

    def test_percent_increase(self):
        assert percent_increase(110.0, 100.0) == pytest.approx(10.0)
        assert percent_increase(5.0, 0.0) == 0.0


class TestLedgerContract:
    """The six names ``benchmarks/ledger/{workloads,probes}.py`` import from
    ``repro.bench``, in the call shapes the ledger uses: tier-1 does not
    collect the ledger's own tests, so trimming ``repro.bench`` could break
    the BENCHMARK.json command unnoticed."""

    def test_scripts_take_the_ledgers_arguments(self):
        assert len(compile_text(fig7_script()).filters) == 25
        assert len(compile_text(fig8_script("actions+rll", 25)).filters) == 25

    @pytest.mark.parametrize("install_vw", [True, False])
    def test_testbed_keywords(self, install_vw):
        tb, node1, node2 = two_node_testbed(
            seed=3, medium="hub", install_vw=install_vw, rll=install_vw
        )
        installed = {"node1", "node2"} if install_vw else set()
        assert set(tb.engines) == set(tb.rll_layers) == installed
        assert node1.nic.medium is node2.nic.medium

    def test_ports(self):
        assert (SENDER_PORT, RECEIVER_PORT) == (0x6000, 0x4000)

    def test_hotpath_point(self):
        point = measure_hotpath_point("fast", seed=0)
        assert point.frames > 0 and point.wall_s > 0
        with pytest.raises(ValueError):
            measure_hotpath_point("slow", seed=0)


class TestRenderers:
    def test_fig7_table_rows(self):
        points = [
            Fig7Point(10, False, 10.0, 0),
            Fig7Point(10, True, 9.5, 0),
            Fig7Point(100, False, 90.5, 2),
            Fig7Point(100, True, 85.9, 5),
        ]
        text = render_fig7(points)
        assert "baseline" in text and "virtualwire+rll" in text
        assert "90.5" in text and "85.9" in text

    def test_fig8_table_rows(self):
        points = [
            Fig8Point("filters", 2, 101_000, 100_000),
            Fig8Point("filters", 25, 103_000, 100_000),
            Fig8Point("actions+rll", 25, 107_000, 100_000),
        ]
        text = render_fig8(points)
        assert "filters" in text and "actions+rll" in text
        assert "7.00%" in text

    def test_overhead_property(self):
        point = Fig8Point("filters", 25, 107_000, 100_000)
        assert point.overhead_percent == pytest.approx(7.0)
