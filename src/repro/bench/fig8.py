"""Figure 8: protocol-processing latency overhead vs number of filters.

The paper measures UDP echo round-trip latency between two hosts with the
VirtualWire layer inserted, sweeping the number of packet-type definitions
from 1 to 25, in three configurations: (i) filters only, (ii) filters plus
25 actions triggered per packet match, (iii) case (ii) with the Reliable
Link Layer enabled.  Because the engine scans the filter table linearly,
the added latency grows linearly in the filter count and stays below ~7%
of the baseline RTT.

This module regenerates the experiment: it synthesises an FSL script with
``n`` packet definitions arranged so the echo traffic matches the *last*
entry (worst-case scan, as in the paper's exact-match search), optionally
attaches a 25-action rule to every hook crossing, and compares the mean
echo RTT against a VirtualWire-free baseline testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.tables import CompiledProgram
from ..sim import ms, seconds
from ..workloads.echo import EchoClient, EchoServer
from .harness import two_node_testbed

#: The paper triggers 25 actions per packet match in configuration (ii).
ACTIONS_PER_MATCH = 25
MODES = ("filters", "actions", "actions+rll")


def build_script(
    node_table_fsl: str, n_filters: int, with_actions: bool, traffic: str = "udp"
) -> str:
    """Synthesise the Fig 8 scenario script.

    ``n_filters - 2`` decoy packet definitions (matching an EtherType that
    never appears) precede the two live ones — UDP echo probe/reply by
    default, or the TCP data/ack pair for the Fig 7 pump — so every
    classification scans the full table.  Each decoy is referenced by a
    counter, keeping it in the pruned filter table that actually ships to
    the engines.
    """
    if n_filters < 2:
        raise ValueError("need at least 2 filters (forward + reverse)")
    lines = ["FILTER_TABLE"]
    decoys = n_filters - 2
    for index in range(decoys):
        lines.append(f"  decoy{index}: (12 2 0x9{index % 10}{(index // 10) % 10}1)")
    if traffic == "udp":
        # Probe: UDP to the echo port (offset 36 = UDP destination port);
        # echo: UDP from the echo port (offset 34 = UDP source port).
        lines.append("  fwd_pkt: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)")
        lines.append("  rev_pkt: (12 2 0x0800), (23 1 0x11), (34 2 0x0007)")
    elif traffic == "tcp":
        # The paper's own TCP definitions (Fig 2): data from port 0x6000,
        # acks from port 0x4000, ACK flag set.
        lines.append("  fwd_pkt: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)")
        lines.append("  rev_pkt: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)")
    else:
        raise ValueError(f"unknown traffic kind {traffic!r}")
    lines.append("END")
    lines.append(node_table_fsl)
    lines.append(f"SCENARIO fig8_latency_{traffic}")
    for index in range(decoys):
        lines.append(f"  D{index}: (decoy{index}, node1, node2, SEND)")
    lines.append("  FwdOut: (fwd_pkt, node1, node2, SEND)")
    lines.append("  FwdIn:  (fwd_pkt, node1, node2, RECV)")
    lines.append("  RevOut: (rev_pkt, node2, node1, SEND)")
    lines.append("  RevIn:  (rev_pkt, node2, node1, RECV)")
    if with_actions:
        # One rule per hook crossing; each fires ACTIONS_PER_MATCH actions
        # (the reset that re-arms the rule plus 24 counter updates).
        for tag, counter, node in (
            ("fo", "FwdOut", "node1"),
            ("fi", "FwdIn", "node2"),
            ("ro", "RevOut", "node2"),
            ("ri", "RevIn", "node1"),
        ):
            lines.append(f"  X{tag}: ({node})")
            body = [f"RESET_CNTR( {counter} )"]
            body += [f"INCR_CNTR( X{tag}, 1 )"] * (ACTIONS_PER_MATCH - 1)
            lines.append(f"  (({counter} = 1)) >> " + "; ".join(body) + ";")
    lines.append("END")
    return "\n".join(lines)


@dataclass
class Fig8Point:
    """One measured cell of Fig 8."""

    mode: str
    n_filters: int
    mean_rtt_ns: float
    baseline_rtt_ns: float


def measure_baseline(probes: int = 50, payload: int = 1000, seed: int = 0) -> float:
    """Mean echo RTT with no VirtualWire anywhere (the 'without' curve)."""
    tb, node1, node2 = two_node_testbed(seed=seed, install_vw=False)
    EchoServer(node2)
    client = EchoClient(node1, node2.ip, probes=probes, payload_size=payload)
    client.start()
    tb.sim.run_until(seconds(30))
    if not client.done:
        raise RuntimeError("baseline echo run did not complete")
    return client.mean_rtt_ns


def fig8_script(mode: str, n_filters: int) -> str:
    """One cell's scenario source, for the canonical two-node testbed."""
    from ..scripts import canonical_node_table

    return build_script(
        canonical_node_table(2), n_filters, with_actions=mode != "filters"
    )


def measure_point(
    mode: str,
    n_filters: int,
    baseline_rtt_ns: float,
    probes: int = 50,
    payload: int = 1000,
    seed: int = 0,
    program: Optional[CompiledProgram] = None,
) -> Fig8Point:
    """Measure one (mode, n_filters) cell.

    *program* is an optional compiled :func:`fig8_script` (a sweep cell's,
    from the compile cache).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tb, node1, node2 = two_node_testbed(
        seed=seed,
        install_vw=True,
        rll=(mode == "actions+rll"),
    )
    script = (
        program
        if program is not None
        else build_script(tb.node_table_fsl(), n_filters, with_actions=mode != "filters")
    )
    server = EchoServer(node2)
    state: Dict[str, EchoClient] = {}

    def workload() -> None:
        client = EchoClient(node1, node2.ip, probes=probes, payload_size=payload)
        state["client"] = client
        client.start()

    tb.run_scenario(script, workload=workload, max_time=seconds(60), inactivity_ns=ms(500))
    client = state["client"]
    if not client.done or not client.rtts_ns:
        raise RuntimeError(f"fig8 echo run incomplete (mode={mode}, n={n_filters})")
    server.close()
    return Fig8Point(mode, n_filters, client.mean_rtt_ns, baseline_rtt_ns)


def fig8_campaign(
    baseline_rtt_ns: float,
    filter_counts: Sequence[int] = (2, 5, 10, 15, 20, 25),
    modes: Sequence[str] = MODES,
    probes: int = 50,
    seed: int = 0,
):
    """The figure as a sweep campaign: one task per (mode, filter count).

    The baseline RTT is measured once by the caller (it is shared by every
    cell) and shipped as a plain number; each cell's script is compiled
    once here in the parent.
    """
    from ..sweep import SweepSpec, fig8_point_task

    spec = SweepSpec("fig8_latency", base_seed=seed)
    for mode in modes:
        for n_filters in filter_counts:
            spec.add(
                f"{mode}@{n_filters}",
                fig8_point_task,
                mode=mode,
                n_filters=n_filters,
                baseline_rtt_ns=baseline_rtt_ns,
                probes=probes,
                seed=seed,
                script=fig8_script(mode, n_filters),
            )
    return spec


def run_fig8(
    filter_counts: Sequence[int] = (2, 5, 10, 15, 20, 25),
    modes: Sequence[str] = MODES,
    probes: int = 50,
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
    baseline_rtt_ns: Optional[float] = None,
) -> List[Fig8Point]:
    """Regenerate the full figure: every (mode, filter count) cell."""
    from ..sweep import run_sweep

    baseline = (
        baseline_rtt_ns
        if baseline_rtt_ns is not None
        else measure_baseline(probes=probes, seed=seed)
    )
    outcome = run_sweep(
        fig8_campaign(
            baseline, filter_counts=filter_counts, modes=modes, probes=probes, seed=seed
        ),
        backend=backend,
        workers=workers,
    )
    failures = [row for row in outcome.rows if not row.ok]
    if failures:
        raise RuntimeError(f"fig8 campaign failed: {failures[0].error}")
    return [Fig8Point(**row.payload) for row in outcome.rows]

