"""Per-layer CPU cost model.

The paper's Fig 8 measures VirtualWire's *added* protocol-processing latency
on Pentium-4 hosts.  We replace wall-clock CPU time with explicit virtual
costs charged as each packet crosses a layer.  The defaults below are sized
so a 1000-byte UDP echo between two hosts on a 100 Mbps switch has a
round-trip time of a few hundred microseconds — the regime of the paper's
testbed — and so the engine's linear filter-scan cost lands in the same few
percent range the paper reports.

Every field is checked once, when the model is built, to be a non-negative
``int``: each layer charges its field through ``Simulator.defer``, which
takes the delay on trust.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import StackError


@dataclass(frozen=True)
class CostModel:
    """Virtual CPU time (nanoseconds) charged at each processing step."""

    #: Device driver interrupt/DMA handling, each direction.
    driver_tx_ns: int = 5_000
    driver_rx_ns: int = 5_000
    #: IPv4 input/output processing (checksum, routing, demux).
    ip_ns: int = 10_000
    #: UDP socket delivery / send path.
    udp_ns: int = 8_000
    #: TCP segment processing (state machine, timers, buffer copies).
    tcp_ns: int = 15_000
    #: VirtualWire engine: fixed entry cost per intercepted packet.
    engine_base_ns: int = 500
    #: VirtualWire engine: one filter-table entry comparison (linear scan).
    #: Calibrated so 25 filters cost ~2-3% of a 1000-byte echo RTT and the
    #: full Fig 8 configuration lands around the paper's ~7% ceiling.
    filter_match_ns: int = 40
    #: VirtualWire engine: executing one triggered action (table updates).
    action_ns: int = 40
    #: VirtualWire engine: one counter/term/condition table touch.
    table_touch_ns: int = 20
    #: Reliable Link Layer: per-frame encapsulation/window bookkeeping.
    rll_frame_ns: int = 1_000

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) is not int or value < 0:
                raise StackError(f"cost {field.name} must be a non-negative int, not {value!r}")


#: Model with every cost zeroed, for tests that want pure wire timing.
FREE = CostModel(**{field.name: 0 for field in fields(CostModel)})
