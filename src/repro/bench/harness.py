"""Shared benchmark scaffolding: canonical two-node testbeds.

The paper's evaluation testbed is two Pentium-4 hosts on a 100 Mbps
switched LAN (§7).  :func:`two_node_testbed` builds the simulated
equivalent; Fig 7 uses the shared-segment variant because the throughput
effect it measures is contention between data and the RLL's acknowledgement
traffic.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.testbed import Testbed
from ..stack.costs import CostModel
from ..stack.node import Host

#: Well-known ports used across the benchmarks (matching the paper's
#: examples: 0x6000 = 24576 on the sender, 0x4000 = 16384 on the receiver).
SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000


def two_node_testbed(
    seed: int = 0,
    medium: str = "switch",
    install_vw: bool = True,
    rll: bool = False,
    costs: Optional[CostModel] = None,
    **medium_kwargs,
) -> Tuple[Testbed, Host, Host]:
    """Build the canonical 2-host testbed.

    *medium* is ``"switch"``, ``"hub"`` or ``"link"``.  When *install_vw*
    is False the testbed is the baseline (no engine anywhere); otherwise
    VirtualWire is installed on both hosts with node1 as the control node,
    optionally with the RLL below the engines.
    """
    tb = Testbed(seed=seed, costs=costs)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    factory = {
        "switch": tb.add_switch,
        "hub": tb.add_hub,
        "bus": tb.add_bus,
        "link": tb.add_link,
    }[medium]
    factory("m0", **medium_kwargs)
    tb.connect("m0", node1, node2)
    if install_vw:
        tb.install_virtualwire(control="node1", rll=rll)
    return tb, node1, node2

