"""The golden scenarios and their pinned digests.

Four runs with every observable surface switched on: the Fig 5 TCP
congestion case study, the extended Fig 6 crash/restart case study, and one
measured point each of the Fig 7 throughput and Fig 8 latency benchmarks.
``test_golden_differential.py`` runs them on the production path and under
the oracles of ``tests/oracles``; ``golden_digests.json`` pins the sha256
of every surface, so a change that moves production and oracle together is
still caught.

Regenerate the digests only for an intended change of observable behaviour
(they were first generated at the commit before the oracles left ``src/``):

    PYTHONPATH=src python -m tests.differential.golden
"""

import dataclasses
import hashlib
import json
import pathlib

from repro.bench.fig7 import measure_point as fig7_point
from repro.bench.fig8 import measure_baseline, measure_point as fig8_point
from repro.core.testbed import Testbed
from repro.rether.install import install_rether
from repro.scripts import rether_crash_restart_script, tcp_congestion_script
from repro.sim import NS_PER_SEC, seconds

SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000
#: lowered from the paper-scale 1000 to keep the crash run fast.
DATA_THRESHOLD = 60
FIG5_SEEDS = (11, 31)
FIG6_SEED = 5

DIGESTS_PATH = pathlib.Path(__file__).with_name("golden_digests.json")


def blob(value) -> str:
    """Canonical byte form of a JSON-able structure."""
    return json.dumps(value, sort_keys=True)


def observe(tb, report) -> dict:
    """Every observable surface of one run, as comparable strings."""
    return {
        "summary": blob(report.summary()),
        "render": report.render(),
        "audit": tb.audit_log.render(),
        "metrics": blob(report.metrics),
        "journeys": blob(report.journeys),
    }


def run_fig5(seed: int, transfer: int = 48 * 1024) -> dict:
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
    assert report.passed, f"fig5[seed={seed}]: {report.render()}"
    return observe(tb, report)


def run_fig6_crash(seed: int) -> dict:
    return observe(*fig6_crash_run(seed))


def fig6_crash_run(seed: int):
    """The Fig 6 crash/restart run: its testbed and its passing report."""
    tb = Testbed(seed=seed)
    hosts = [tb.add_host(f"node{i}") for i in range(1, 5)]
    tb.add_bus("bus0")
    tb.connect("bus0", *hosts)
    tb.install_virtualwire(control="node1", telemetry=True)
    install_rether(hosts)
    script = rether_crash_restart_script(
        tb.node_table_fsl(), data_threshold=DATA_THRESHOLD
    )

    def workload():
        hosts[3].tcp.listen(RECEIVER_PORT)
        conn = hosts[0].tcp.connect(hosts[3].ip, RECEIVER_PORT, local_port=SENDER_PORT)
        conn.on_established = lambda: conn.send(bytes((DATA_THRESHOLD + 40) * 1024))

    report = tb.run_scenario(script, workload=workload, max_time=seconds(60))
    assert report.passed, f"fig6-crash[seed={seed}]: {report.render()}"
    return tb, report


def run_fig7_point() -> dict:
    """One Fig 7 cell: goodput and retransmissions are virtual-time facts."""
    point = fig7_point(30.0, True, duration_ns=int(0.05 * NS_PER_SEC), seed=3)
    return {"point": blob(dataclasses.asdict(point))}


def run_fig8_point() -> dict:
    """One Fig 8 cell (25 actions per match over the RLL) and its baseline."""
    baseline = measure_baseline(probes=20, payload=300, seed=3)
    point = fig8_point("actions+rll", 10, baseline, probes=20, payload=300, seed=3)
    return {"point": blob(dataclasses.asdict(point))}


#: name -> zero-argument runner returning {surface: string}.
GOLDEN_RUNS = {
    **{f"fig5[{seed}]": (lambda seed=seed: run_fig5(seed)) for seed in FIG5_SEEDS},
    f"fig6_crash[{FIG6_SEED}]": lambda: run_fig6_crash(FIG6_SEED),
    "fig7_point": run_fig7_point,
    "fig8_point": run_fig8_point,
}


def digest(surfaces: dict) -> dict:
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in surfaces.items()
    }


if __name__ == "__main__":
    pinned = {name: digest(run()) for name, run in GOLDEN_RUNS.items()}
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
