"""The full metrics snapshot of two telemetry runs, pinned as literals.

No other test asserts an ``rll.*`` metric, and no golden run has the RLL
with telemetry on.  These two runs cover what the goldens miss:

* an echo exchange over the RLL on a link with bit errors, so that
  ``rll.retransmissions`` is non-zero on both nodes;
* the Fig 6 crash/restart run of the golden harness, where node3 crashes
  and ``engine.packets_intercepted`` (the node's whole life) parts from
  ``engine_stats`` (reset at the crash and at INIT).

Both literals were captured before the per-node counters that repeat a
layer attribute were replaced by reads of that attribute: any change to
what a snapshot says is a change of observable behaviour.
"""

from repro.core.testbed import Testbed
from repro.sim import ms, seconds
from repro.workloads import EchoClient, EchoServer
from tests.differential.golden import FIG6_SEED, fig6_crash_run

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO lossy_rll
  P: (probe, node1, node2, RECV)
  ((P > 3) && (P <= 4)) >> DROP probe, node1, node2, RECV;
END
"""


def lossy_rll_run():
    tb = Testbed(seed=31)
    node1, node2 = tb.add_host("node1"), tb.add_host("node2")
    tb.add_link("l0", bit_error_rate=3e-5, queue_frames=512)
    tb.connect("l0", node1, node2)
    tb.install_virtualwire(control="node1", rll=True, telemetry=True)
    EchoServer(node2)

    def workload():
        EchoClient(node1, node2.ip, probes=30, payload_size=300, timeout_ns=ms(100)).start()

    report = tb.run_scenario(
        SCRIPT.format(nodes=tb.node_table_fsl()), workload=workload, max_time=seconds(60)
    )
    assert report.passed, report.render()
    return tb, report


LOSSY_RLL_METRICS = {
    "node1": {
        "driver.rx_frames": 89,
        "driver.tx_frames": 94,
        "engine.cost_ns": {"buckets": {"10": 59}, "count": 59, "max": 540, "min": 540, "sum": 31860, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 0,
        "engine.packets_intercepted": 59,
        "rll.abandoned_frames": 0,
        "rll.backlog_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "rll.retransmissions": 5,
    },
    "node2": {
        "driver.rx_frames": 88,
        "driver.tx_frames": 91,
        "engine.cost_ns": {"buckets": {"10": 59}, "count": 59, "max": 620, "min": 540, "sum": 33700, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 1,
        "engine.packets_intercepted": 59,
        "rll.abandoned_frames": 0,
        "rll.backlog_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "rll.retransmissions": 2,
    },
}

FIG6_CRASH_METRICS = {
    "node1": {
        "driver.rx_frames": 1013,
        "driver.tx_frames": 1013,
        "engine.cost_ns": {"buckets": {"10": 1934}, "count": 1934, "max": 580, "min": 540, "sum": 1087120, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 0,
        "engine.packets_intercepted": 1934,
        "rether.nodes_evicted": 0,
        "rether.regenerations": 0,
        "rether.token_retransmissions": 0,
        "tcp.cwnd": {"last": 65, "max": 65, "min": 2, "samples": 100, "type": "gauge"},
        "tcp.fast_retransmits": 0,
        "tcp.rtt_ns": {"buckets": {"19": 1, "20": 1, "21": 22, "22": 38, "26": 39}, "count": 101, "max": 37387840, "min": 516680, "sum": 1567343000, "type": "histogram"},
        "tcp.timeout_retransmits": 0,
    },
    "node2": {
        "driver.rx_frames": 901,
        "driver.tx_frames": 921,
        "engine.cost_ns": {"buckets": {"10": 1736}, "count": 1736, "max": 860, "min": 540, "sum": 972620, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 0,
        "engine.packets_intercepted": 1736,
        "rether.nodes_evicted": 1,
        "rether.regenerations": 0,
        "rether.token_retransmissions": 2,
    },
    "node3": {
        "driver.rx_frames": 62,
        "driver.tx_frames": 62,
        "engine.cost_ns": {"buckets": {"10": 61}, "count": 61, "max": 580, "min": 540, "sum": 34180, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 0,
        "engine.packets_intercepted": 61,
        "rether.nodes_evicted": 0,
        "rether.regenerations": 0,
        "rether.token_retransmissions": 0,
    },
    "node4": {
        "driver.rx_frames": 1002,
        "driver.tx_frames": 1000,
        "engine.cost_ns": {"buckets": {"10": 1934}, "count": 1934, "max": 660, "min": 540, "sum": 1108080, "type": "histogram"},
        "engine.delay_queue_depth": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "engine.faults_applied": 0,
        "engine.packets_intercepted": 1934,
        "rether.nodes_evicted": 0,
        "rether.regenerations": 0,
        "rether.token_retransmissions": 0,
        "tcp.cwnd": {"last": 0, "max": 0, "min": 0, "samples": 0, "type": "gauge"},
        "tcp.fast_retransmits": 0,
        "tcp.rtt_ns": {"buckets": {"19": 1}, "count": 1, "max": 516720, "min": 516720, "sum": 516720, "type": "histogram"},
        "tcp.timeout_retransmits": 0,
    },
}


def test_lossy_rll_metrics_pinned():
    tb, report = lossy_rll_run()
    assert all(layer.retransmissions > 0 for layer in tb.rll_layers.values())
    assert report.metrics == LOSSY_RLL_METRICS


def test_fig6_crash_metrics_pinned():
    _, report = fig6_crash_run(FIG6_SEED)
    assert report.metrics == FIG6_CRASH_METRICS
    # The crashed node's engine counted its whole life; its stats restarted.
    assert report.metrics["node3"]["engine.packets_intercepted"] == 61
    assert report.engine_stats["node3"]["packets_intercepted"] == 5
