"""Figure 7: TCP throughput vs offered load with the FIE layer inserted.

The paper pumps a TCP connection between two hosts at offered rates from
10 to 100 Mbps with 25 packet-type filters, 25 actions per match and the
Reliable Link Layer on, and plots the achieved throughput.  Throughput
tracks the offered rate until ~90 Mbps and then degrades — the RLL
encapsulates both TCP data and TCP acks, and its own acknowledgements
contend with data on the shared segment — but the loss stays within 10%.

We reproduce the experiment on a shared 100 Mbps segment (the contention
medium; see DESIGN.md) with a rate-paced TCP sender.  Both curves are
produced: the baseline without VirtualWire and the full
25-filter/25-action/RLL configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.tables import CompiledProgram
from ..scripts import canonical_node_table
from ..sim import NS_PER_SEC, ms, seconds
from ..workloads.bulk import BulkReceiver, PacedSender
from .fig8 import build_script
from .harness import RECEIVER_PORT, SENDER_PORT, two_node_testbed

#: The paper's engine configuration for this figure.
N_FILTERS = 25


@dataclass
class Fig7Point:
    """One measured point: offered rate vs achieved goodput."""

    offered_mbps: float
    with_virtualwire: bool
    goodput_mbps: float
    retransmissions: int


def _tcp_script(node_table_fsl: str) -> str:
    """The synthetic 25-filter/25-action script targeting the TCP pump:

    every data and ack packet pays the full linear scan and triggers 25
    actions at each hook crossing, exactly the paper's configuration.
    """
    return build_script(node_table_fsl, N_FILTERS, with_actions=True, traffic="tcp")


def fig7_script() -> str:
    """The figure's (single) scenario script, for the canonical two-node
    testbed whose auto-generated addresses ``canonical_node_table`` mirrors
    — campaign cells carry it as their ``script`` param."""
    return _tcp_script(canonical_node_table(2))


def measure_point(
    offered_mbps: float,
    with_virtualwire: bool,
    duration_ns: int = int(0.3 * NS_PER_SEC),
    seed: int = 0,
    program: Optional[CompiledProgram] = None,
) -> Fig7Point:
    """Measure goodput at one offered rate.

    *program* is an optional compiled :func:`fig7_script` (a sweep cell's,
    from the compile cache); without it the script is compiled here.
    """
    tb, node1, node2 = two_node_testbed(
        seed=seed,
        medium="hub",
        install_vw=with_virtualwire,
        rll=with_virtualwire,
    )
    receiver = BulkReceiver(node2, RECEIVER_PORT)
    state: Dict[str, PacedSender] = {}

    def workload() -> None:
        state["sender"] = PacedSender(
            node1,
            node2.ip,
            RECEIVER_PORT,
            offered_bps=offered_mbps * 1e6,
            duration_ns=duration_ns,
            local_port=SENDER_PORT,
        )

    if with_virtualwire:
        script = program if program is not None else _tcp_script(tb.node_table_fsl())
        tb.run_scenario(
            script,
            workload=workload,
            max_time=duration_ns + seconds(5),
            inactivity_ns=ms(200),
        )
    else:
        workload()
        tb.sim.run_until(duration_ns + seconds(2))
    sender = state["sender"]
    return Fig7Point(
        offered_mbps=offered_mbps,
        with_virtualwire=with_virtualwire,
        goodput_mbps=receiver.goodput_bps() / 1e6,
        retransmissions=sender.connection.retransmissions,
    )


def fig7_campaign(
    offered_rates: Sequence[float],
    duration_ns: int = int(0.3 * NS_PER_SEC),
    seed: int = 0,
):
    """The figure as a sweep campaign: one task per (configuration, rate)."""
    from ..sweep import SweepSpec, fig7_point_task

    spec = SweepSpec("fig7_throughput", base_seed=seed)
    script = fig7_script()
    for with_vw in (False, True):
        for rate in offered_rates:
            label = f"{'virtualwire' if with_vw else 'baseline'}@{rate:g}Mbps"
            params = dict(
                offered_mbps=rate,
                with_virtualwire=with_vw,
                duration_ns=duration_ns,
                seed=seed,
            )
            if with_vw:
                params["script"] = script  # each cell compiles it through the cache
            spec.add(label, fig7_point_task, **params)
    return spec


def run_fig7(
    offered_rates: Sequence[float] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100),
    duration_ns: int = int(0.3 * NS_PER_SEC),
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
) -> List[Fig7Point]:
    """Regenerate the full figure (both curves) as a sweep campaign."""
    from ..sweep import run_sweep

    outcome = run_sweep(
        fig7_campaign(offered_rates, duration_ns=duration_ns, seed=seed),
        backend=backend,
        workers=workers,
    )
    failures = [row for row in outcome.rows if not row.ok]
    if failures:
        raise RuntimeError(f"fig7 campaign failed: {failures[0].error}")
    return [Fig7Point(**row.payload) for row in outcome.rows]

