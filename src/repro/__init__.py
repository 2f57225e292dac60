"""VirtualWire reproduction: network fault injection and analysis.

A faithful Python reproduction of *VirtualWire: A Fault Injection and
Analysis Tool for Network Protocols* (De, Neogi, Chiueh — ICDCS 2003), on
top of a deterministic discrete-event testbed with from-scratch Ethernet,
IPv4, UDP, TCP, Rether and Reliable Link Layer implementations.

Quick start::

    from repro import Testbed, seconds

    tb = Testbed(seed=1)
    n1, n2 = tb.add_host("node1"), tb.add_host("node2")
    tb.add_switch("sw0"); tb.connect("sw0", n1, n2)
    tb.install_virtualwire(control="node1")
    report = tb.run_scenario(script_text, workload=start_traffic)
"""

from .core.testbed import Testbed
from .errors import ReproError
from .sim import Simulator, ms, seconds
from .stack import CostModel, Host

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "Host",
    "ReproError",
    "Simulator",
    "Testbed",
    "ms",
    "seconds",
    "__version__",
]
