"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.testbed import Testbed
from repro.sim import Simulator
from repro.stack.costs import FREE, CostModel
from repro.stack.node import Host


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def free_costs() -> CostModel:
    """A zero-cost model: packets move in pure wire time."""
    return FREE


def every(sim: Simulator, interval_ns: int, fn) -> None:
    """Run *fn* every *interval_ns* of virtual time, first one interval from
    now: a test's monitor, a timer that restarts itself after each call."""

    def tick() -> None:
        fn()
        timer.start(interval_ns)

    timer = sim.timer(tick, "test:every")
    timer.start(interval_ns)


def counter_spec(program, name: str):
    """The compiled counter an FSL script names *name*."""
    (spec,) = [spec for spec in program.counters if spec.name == name]
    return spec


def counter_value(runtime, name: str) -> int:
    """A node runtime's current value of the counter named *name*."""
    return runtime.values[counter_spec(runtime.program, name).counter_id]


def make_two_hosts(sim: Simulator, costs: CostModel = None):
    """Two hosts on a switch with neighbour tables filled."""
    from repro.net.topology import Topology

    topo = Topology(sim)
    topo.add_switch("sw0")
    h1 = Host(sim, "node1", "02:00:00:00:00:01", "192.168.1.1", costs=costs)
    h2 = Host(sim, "node2", "02:00:00:00:00:02", "192.168.1.2", costs=costs)
    for h in (h1, h2):
        for other in (h1, h2):
            h.add_neighbor(other.ip, other.mac)
    topo.connect("sw0", h1.nic, h2.nic)
    return topo, h1, h2


def make_testbed(n_hosts: int = 2, seed: int = 7, medium: str = "switch", **vw_kwargs):
    """A ready testbed with VirtualWire installed on every host."""
    tb = Testbed(seed=seed)
    hosts = [tb.add_host(f"node{i}") for i in range(1, n_hosts + 1)]
    factory = {"switch": tb.add_switch, "hub": tb.add_hub, "bus": tb.add_bus}[medium]
    factory("m0")
    tb.connect("m0", *hosts)
    tb.install_virtualwire(control="node1", **vw_kwargs)
    return tb, hosts
