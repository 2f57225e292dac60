"""Integration: the shipped Fig 5 / Fig 6 scenarios under BOTH classifiers.

The production classifier must be invisible end-to-end: running the
paper's TCP congestion case study (Fig 5) and the Rether failover case
study (Fig 6) on it must produce byte-identical rendered reports,
identical verdicts/counters/engine statistics, and a byte-identical audit
trail compared to the same run with the linear-scan oracle patched into
every engine — the strongest observational-equivalence check we can run.
"""

from contextlib import nullcontext

import pytest

from repro.core.testbed import Testbed
from repro.rether.install import install_rether
from repro.scripts import rether_failover_script, tcp_congestion_script
from repro.sim import seconds
from tests.oracles.classifiers import linear_engines

SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000
#: as in test_rether_case_study: lowered threshold keeps the run fast.
DATA_THRESHOLD = 60

#: classifier -> the context its whole run (install + scenario) happens in.
CLASSIFIERS = {"linear": linear_engines, "production": nullcontext}


def run_fig5(seed=11, transfer=48 * 1024):
    tb = Testbed(seed=seed)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1", telemetry=True)
    script = tcp_congestion_script(tb.node_table_fsl())

    def workload():
        node2.tcp.listen(RECEIVER_PORT)
        conn = node1.tcp.connect(node2.ip, RECEIVER_PORT, local_port=SENDER_PORT)
        conn.on_established = lambda: conn.send(bytes(transfer))

    report = tb.run_scenario(script, workload=workload, max_time=seconds(60))
    return tb, report


def run_fig6(seed=5, threshold=DATA_THRESHOLD):
    tb = Testbed(seed=seed)
    hosts = [tb.add_host(f"node{i}") for i in range(1, 5)]
    tb.add_bus("bus0")
    tb.connect("bus0", *hosts)
    tb.install_virtualwire(control="node1", telemetry=True)
    install_rether(hosts)
    script = rether_failover_script(tb.node_table_fsl(), data_threshold=threshold)

    def workload():
        hosts[3].tcp.listen(RECEIVER_PORT)
        conn = hosts[0].tcp.connect(
            hosts[3].ip, RECEIVER_PORT, local_port=SENDER_PORT
        )
        conn.on_established = lambda: conn.send(bytes((threshold + 40) * 1024))

    report = tb.run_scenario(script, workload=workload, max_time=seconds(60))
    return tb, report


def under_both(run):
    runs = {}
    for kind, context in CLASSIFIERS.items():
        with context():
            runs[kind] = run()
    return runs


@pytest.fixture(scope="module")
def fig5_runs():
    return under_both(run_fig5)


@pytest.fixture(scope="module")
def fig6_runs():
    return under_both(run_fig6)


def assert_observationally_identical(runs):
    (tb_lin, report_lin), (tb_prod, report_prod) = runs["linear"], runs["production"]
    # Verdict and full rendered report are byte-identical.
    assert report_prod.passed == report_lin.passed
    assert report_prod.end_reason == report_lin.end_reason
    assert report_prod.render() == report_lin.render()
    # Analysis outcome: counters, errors, timing.
    assert report_prod.final_counters == report_lin.final_counters
    assert report_prod.counters == report_lin.counters
    assert report_prod.errors == report_lin.errors
    assert report_prod.duration_ns == report_lin.duration_ns
    # Engine statistics — including the linear-equivalent scan counts that
    # feed the Fig 8 cost model — do not depend on the implementation.
    assert report_prod.engine_stats == report_lin.engine_stats
    # The engine-decision narrative is byte-identical.
    assert tb_prod.audit_log.render() == tb_lin.audit_log.render()


class TestFig5TcpDual:
    def test_scenario_passes_under_both(self, fig5_runs):
        for kind, (tb, report) in fig5_runs.items():
            assert report.passed, f"{kind}: {report.render()}"

    def test_observationally_identical(self, fig5_runs):
        assert_observationally_identical(fig5_runs)

    def test_fault_injected_once_under_both(self, fig5_runs):
        for _, report in fig5_runs.values():
            assert report.final_counters["SYNACK"] == 2
            assert report.engine_stats["node1"]["packets_dropped"] == 1


class TestFig6RetherDual:
    def test_scenario_passes_under_both(self, fig6_runs):
        for kind, (tb, report) in fig6_runs.items():
            assert report.passed, f"{kind}: {report.render()}"
            assert report.end_reason.value == "stop"

    def test_observationally_identical(self, fig6_runs):
        assert_observationally_identical(fig6_runs)

    def test_distributed_crash_under_both(self, fig6_runs):
        for tb, report in fig6_runs.values():
            assert not tb.hosts["node3"].is_alive
            assert report.final_counters["TokensFrom2"] == 3
