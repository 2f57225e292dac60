"""The paper's §7 evaluation and the design ablations, as exact data.

Everything measured here is virtual time or a simulated count — a pure
function of ``src/`` and the seeds below — so ``figures.json`` pins the
numbers exactly and ``test_figures.py`` regenerates and compares them on
every tier-1 run.  Host-time measurements belong to ``benchmarks/ledger``.

``PYTHONPATH=src python -m tests.paper.figures`` rewrites ``figures.json``
and prints the tables EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, replace
from typing import Callable, Dict, List, Optional

from repro.bench.fig7 import Fig7Point, render_table as render_fig7, run_fig7
from repro.bench.fig8 import (
    Fig8Point,
    build_script,
    measure_point as measure_fig8_point,
    render_table as render_fig8,
    run_fig8,
)
from repro.bench.harness import RECEIVER_PORT, SENDER_PORT, percent_increase, two_node_testbed
from repro.core.classify import Classifier
from repro.core.tables import FilterEntry, FilterTable, FilterTuple
from repro.net import FLAG_ACK, TcpSegment
from repro.rll import RllLayer
from repro.sim import ms, seconds
from repro.stack.costs import CostModel
from repro.workloads import BulkReceiver, BulkSender, EchoClient, EchoServer
from tests.conftest import make_testbed
from tests.oracles.classifiers import linear_engines
from tests.oracles.codec import build_tcp_frame

PINNED = pathlib.Path(__file__).with_name("figures.json")

OFFERED_RATES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100)
FIG7_PUMP_NS = ms(200)  # virtual pumping time per point
FILTER_COUNTS = (2, 5, 10, 15, 20, 25)
FIG8_PROBES = 40
PARITY_FILTER_COUNTS = (5, 25)


def classifier_parity(baseline_rtt_ns: float) -> List[dict]:
    """Fig 8 filters-only cells on engines that scan linearly (the oracle
    of tests/oracles): the cost model charges the linear-equivalent scan,
    so these must equal the production cells to the nanosecond."""
    with linear_engines():
        return [
            asdict(measure_fig8_point("filters", n, baseline_rtt_ns, probes=FIG8_PROBES, seed=0))
            for n in PARITY_FILTER_COUNTS
        ]


# -- RLL benefit and cost (§3.3) ---------------------------------------------

TRANSFER_BYTES = 512 * 1024
#: ~1.7 % loss of a 1078-byte frame: noisy enough to visibly hurt Tahoe,
#: mild enough that both configurations finish.
NOISY_BER = 2e-6


def rll_transfer(wire: str, rll: bool) -> dict:
    """One bulk TCP transfer over a clean or noisy link, RLL on or off."""
    tb, node1, node2 = two_node_testbed(
        seed=13,
        medium="link",
        install_vw=False,
        bit_error_rate=NOISY_BER if wire == "noisy" else 0.0,
        queue_frames=256,
    )
    layers = [RllLayer(tb.sim) for _ in (node1, node2)] if rll else []
    for host, layer in zip((node1, node2), layers):
        host.chain.splice_above_driver(layer)
    receiver = BulkReceiver(node2, RECEIVER_PORT)
    sender = BulkSender(node1, node2.ip, RECEIVER_PORT, TRANSFER_BYTES, local_port=SENDER_PORT)
    tb.sim.run_until(seconds(30))
    return {
        "wire": wire,
        "rll": rll,
        "goodput_mbps": receiver.goodput_bps() / 1e6,
        "tcp_rtx": sender.connection.retransmissions,
        "rll_rtx": sum(layer.retransmissions for layer in layers),
        "fcs_drops": node1.nic.fcs_drops + node2.nic.fcs_drops,
        "complete": receiver.bytes_received == TRANSFER_BYTES,
    }


# -- control-plane traffic vs rule placement and control loss (§5.2) ---------

PROBE_FILTER = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
"""
#: local — condition and action on the counter's own node; status-stable —
#: remote action, counter-vs-const term that flips once; status-flappy — the
#: rule resets its own counter, so the remote term flips twice per packet;
#: mirror — a remote counter-vs-counter term (one value per change; the
#: condition is true at start and its one FLAG_ERROR is tolerated).
PLACEMENT_RULES = {
    "local": """
  P: (probe, node1, node2, RECV)
  X: (node2)
  ((P = 1)) >> RESET_CNTR( P ); INCR_CNTR( X, 1 );""",
    "status-stable": """
  P: (probe, node1, node2, RECV)
  X: (node3)
  ((P >= 10)) >> INCR_CNTR( X, 1 );""",
    "status-flappy": """
  P: (probe, node1, node2, RECV)
  X: (node3)
  ((P = 1)) >> RESET_CNTR( P ); INCR_CNTR( X, 1 );""",
    "mirror": """
  P: (probe, node1, node2, RECV)
  Q: (probe, node1, node3, RECV)
  ((Q >= P)) >> FLAG_ERROR;""",
}
N_PACKETS = 50
CONTROL_LOSS_RATES = (0.0, 0.05, 0.20)


def control_plane_run(placement: str, control_loss: float = 0.0) -> dict:
    """50 UDP probes node1→node2 under one rule placement on three nodes,
    optionally with node3's control path dropping *control_loss* of frames."""
    tb, hosts = make_testbed(3, seed=23)
    if control_loss:
        tb.add_control_loss("node3", control_loss)
    script = f"{PROBE_FILTER}{tb.node_table_fsl()}\nSCENARIO s{PLACEMENT_RULES[placement]}\nEND\n"

    def workload() -> None:
        hosts[1].udp.bind(7)
        sender = hosts[0].udp.bind(0)
        for i in range(N_PACKETS):
            tb.sim.after((i + 1) * ms(1), lambda: sender.sendto(bytes(30), hosts[1].ip, 7))

    report = tb.run_scenario(script, workload=workload, max_time=seconds(30), inactivity_ns=ms(200))
    row = {"placement": placement, "control_loss": control_loss, "degraded": report.degraded}
    for key in ("state_frames_sent", "control_frames_sent", "control_retransmits",
                "control_duplicates_dropped"):
        row[key] = sum(stats[key] for stats in report.engine_stats.values())
    return row


# -- Fig 8's sensitivity to the cost calibration ------------------------------

COST_FACTORS = (0.5, 1.0, 2.0)
SENSITIVITY_FILTER_COUNTS = (2, 25)
SENSITIVITY_PROBES = 30
#: Only the engine-side costs scale; the baseline stack stays fixed so the
#: overhead percentages are comparable across factors.
ENGINE_COSTS = ("engine_base_ns", "filter_match_ns", "action_ns", "table_touch_ns", "rll_frame_ns")


def echo_rtt_ns(costs: CostModel, n_filters: Optional[int]) -> float:
    """Mean echo RTT under *costs*: filters-only VirtualWire with
    *n_filters*, or the engine-free baseline when it is None."""
    tb, node1, node2 = two_node_testbed(seed=0, install_vw=n_filters is not None, costs=costs)
    EchoServer(node2)
    client = EchoClient(node1, node2.ip, probes=SENSITIVITY_PROBES, payload_size=1000)
    if n_filters is None:
        client.start()
        tb.sim.run_until(seconds(30))
    else:
        script = build_script(tb.node_table_fsl(), n_filters, with_actions=False)
        tb.run_scenario(script, workload=client.start, max_time=seconds(60), inactivity_ns=ms(300))
    return client.mean_rtt_ns


def cost_sensitivity() -> List[dict]:
    rows = []
    for factor in COST_FACTORS:
        base = CostModel()
        costs = replace(base, **{f: int(getattr(base, f) * factor) for f in ENGINE_COSTS})
        baseline = echo_rtt_ns(costs, None)
        for n_filters in SENSITIVITY_FILTER_COUNTS:
            rows.append({"engine_cost_factor": factor, "n_filters": n_filters,
                         "mean_rtt_ns": echo_rtt_ns(costs, n_filters),
                         "baseline_rtt_ns": baseline})
    return rows


# -- the classifier's result/cost split (docs/CLASSIFIER.md) -----------------

TABLE_SIZES = (5, 25, 100, 400)


def classifier_cost_split() -> List[dict]:
    """The live TCP entry sits last behind n-1 decoys: the classifier charges
    the paper's linear scan (n) while its index examines one entry."""
    live = FilterEntry("tcp_data", (FilterTuple(34, 2, 0x6000), FilterTuple(36, 2, 0x4000),
                                    FilterTuple(47, 1, 0x10, mask=0x10)))
    packet = build_tcp_frame(
        "02:00:00:00:00:01", "02:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
        TcpSegment(0x6000, 0x4000, 1, 2, FLAG_ACK, 512, bytes(64)),
    ).to_bytes()
    rows = []
    for size in TABLE_SIZES:
        decoys = [
            FilterEntry(f"decoy{i}", (FilterTuple(12, 2, 0x9000 + i), FilterTuple(14, 2, i)))
            for i in range(size - 1)
        ]
        classifier = Classifier(FilterTable(decoys + [live]))
        matched, charged = classifier.classify(packet)
        rows.append({"entries": size, "matched": matched, "charged_scan": charged,
                     "entries_examined": classifier.entries_examined_total})
    return rows


# -- the data file and its text rendering -------------------------------------


def generate() -> Dict[str, List[dict]]:
    """Run every experiment on the serial backend; rows are JSON-ready."""
    fig8 = run_fig8(FILTER_COUNTS, probes=FIG8_PROBES, seed=0, backend="serial")
    return {
        "fig7": [asdict(p) for p in run_fig7(OFFERED_RATES, duration_ns=FIG7_PUMP_NS, seed=0,
                                             backend="serial")],
        "fig8": [asdict(p) for p in fig8],
        "classifier_parity": classifier_parity(fig8[0].baseline_rtt_ns),
        "rll_ablation": [rll_transfer(wire, rll) for wire in ("clean", "noisy")
                         for rll in (False, True)],
        "control_placement": [control_plane_run(kind) for kind in PLACEMENT_RULES],
        "control_loss": [control_plane_run("mirror", rate) for rate in CONTROL_LOSS_RATES],
        "cost_sensitivity": cost_sensitivity(),
        "classifier_cost_split": classifier_cost_split(),
    }


def overhead_percent(row: dict) -> float:
    """% RTT increase over the baseline of a fig8-shaped row."""
    return percent_increase(row["mean_rtt_ns"], row["baseline_rtt_ns"])


#: Text-table columns of each ablation section: header -> cell from a row.
COLUMNS = {
    "rll_ablation": {
        "wire": lambda r: r["wire"],
        "rll": lambda r: "on" if r["rll"] else "off",
        "goodput Mbps": lambda r: f"{r['goodput_mbps']:.1f}",
        "tcp rtx": lambda r: r["tcp_rtx"],
        "rll rtx": lambda r: r["rll_rtx"],
        "fcs drops": lambda r: r["fcs_drops"],
    },
    "control_placement": {
        "placement": lambda r: r["placement"],
        "state frames / packet": lambda r: f"{r['state_frames_sent'] / N_PACKETS:.2f}",
    },
    "control_loss": {
        "control loss": lambda r: f"{r['control_loss']:.0%}",
        "control frames / packet": lambda r: f"{r['control_frames_sent'] / N_PACKETS:.2f}",
        "retransmits": lambda r: r["control_retransmits"],
        "dups dropped": lambda r: r["control_duplicates_dropped"],
    },
    "cost_sensitivity": {
        "engine cost": lambda r: f"{r['engine_cost_factor']}x",
        "filters": lambda r: r["n_filters"],
        "RTT overhead": lambda r: f"{overhead_percent(r):.2f}%",
    },
    "classifier_cost_split": {
        "entries": lambda r: r["entries"],
        "charged scan": lambda r: r["charged_scan"],
        "entries examined": lambda r: r["entries_examined"],
    },
}


def _table(columns: Dict[str, Callable[[dict], object]], rows: List[dict]) -> str:
    lines = [list(columns)] + [[str(cell(row)) for cell in columns.values()] for row in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(columns))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in lines)


def tables(data) -> Dict[str, str]:
    """Each section of *data* as the text table EXPERIMENTS.md quotes."""
    text = {
        "fig7": render_fig7([Fig7Point(**row) for row in data["fig7"]]),
        "fig8": render_fig8([Fig8Point(**row) for row in data["fig8"]]),
    }
    text.update((name, _table(columns, data[name])) for name, columns in COLUMNS.items())
    return text


def dumps(data: Dict[str, List[dict]]) -> str:
    """The data file's text: one JSON row per line, so a moved number is a
    one-line diff."""
    sections = (
        f' "{name}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for name, rows in data.items()
    )
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    data = generate()
    PINNED.write_text(dumps(data))
    for name, text in tables(data).items():
        print(f"[{name}]\n{text}\n")


if __name__ == "__main__":
    main()
