"""The Testbed facade: build a LAN, splice VirtualWire in, run scenarios.

This is the library's main entry point.  A typical session::

    from repro import Testbed, seconds

    tb = Testbed(seed=42)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1")

    def workload():
        node2.tcp.listen(0x4000)
        conn = node1.tcp.connect(node2.ip, 0x4000, local_port=0x6000)
        conn.on_established = lambda: conn.send(bytes(16384))

    report = tb.run_scenario(SCRIPT, workload=workload,
                             max_time=seconds(30))
    assert report.passed, report.render()

The testbed auto-generates deterministic MAC/IP addresses, fills every
host's neighbour table, and can emit the script's ``NODE_TABLE`` section so
scripts never hard-code addresses.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Union

from ..analysis import MetricsRegistry, correlate_journeys
from ..errors import ScenarioError, TopologyError
from ..net.addresses import IpAddress, MacAddress
from ..net.topology import Topology
from ..rll import RllLayer
from ..sim import DrainEnd, Simulator, seconds
from ..stack.costs import CostModel
from ..stack.node import Host
from ..trace import TapLayer, TraceRecorder
from .audit import AuditLog
from .chaos import ControlLossLayer
from .engine import VirtualWireEngine
from .frontend import Frontend
from .fsl import compile_text
from .report import EndReason, ScenarioReport
from .tables import CompiledProgram

HostRef = Union[str, Host]

#: Events one :meth:`Testbed.run_scenario` may fire before it is cut short
#: as MAX_TIME: a guard against a runaway self-scheduling loop.
MAX_EVENTS = 50_000_000

#: The compile cache behind :meth:`Testbed.compile_cached`, keyed by
#: ``(script text, scenario name)``; bounded so generated script families
#: cannot grow it without limit.
_compile_cached = functools.lru_cache(maxsize=64)(compile_text)


class Testbed:
    """A simulated LAN with VirtualWire installed on its hosts."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    @staticmethod
    def compile_cached(script: str, scenario: Optional[str] = None) -> CompiledProgram:
        """Compile *script* (or return the cached result) — LRU, shared
        across all testbeds of the process.

        Regression suites re-run the same string script against a fresh
        testbed per iteration, and the sweep engine's compile-once-in-the-
        parent path (:mod:`repro.sweep`) goes through the same entry point.
        Callers must treat the returned program as immutable: it may be
        handed out again for the same source text.
        """
        return _compile_cached(script, scenario)

    def __init__(self, seed: int = 0, costs: Optional[CostModel] = None) -> None:
        self.sim = Simulator(seed=seed)
        self.topology = Topology(self.sim)
        self.costs = costs if costs is not None else CostModel()
        self.hosts: Dict[str, Host] = {}
        self.engines: Dict[str, VirtualWireEngine] = {}
        self.rll_layers: Dict[str, RllLayer] = {}
        self.frontend: Optional[Frontend] = None
        self.recorder: Optional[TraceRecorder] = None
        self.audit_log: Optional[AuditLog] = None
        self.metrics: Optional[MetricsRegistry] = None
        self._host_index = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        mac: Optional[str] = None,
        ip: Optional[str] = None,
    ) -> Host:
        """Create a host; addresses are auto-generated when omitted."""
        if name in self.hosts:
            raise TopologyError(f"duplicate host name {name!r}")
        self._host_index += 1
        host = Host(
            self.sim,
            name,
            mac if mac is not None else MacAddress.from_index(self._host_index),
            ip if ip is not None else IpAddress.from_index(self._host_index),
            costs=self.costs,
        )
        self.hosts[name] = host
        for other in self.hosts.values():
            other.add_neighbor(host.ip, host.mac)
            host.add_neighbor(other.ip, other.mac)
        return host

    def add_switch(self, name: str = "sw0", **kwargs):
        return self.topology.add_switch(name, **kwargs)

    def add_hub(self, name: str = "hub0", **kwargs):
        return self.topology.add_hub(name, **kwargs)

    def add_bus(self, name: str = "bus0", **kwargs):
        return self.topology.add_bus(name, **kwargs)

    def add_link(self, name: str = "link0", **kwargs):
        return self.topology.add_link(name, **kwargs)

    def connect(self, medium_name: str, *hosts: HostRef) -> None:
        """Attach each host's NIC to the named medium."""
        nics = [self.host(ref).nic for ref in hosts]
        self.topology.connect(medium_name, *nics)

    def host(self, ref: HostRef) -> Host:
        if isinstance(ref, Host):
            return ref
        try:
            return self.hosts[ref]
        except KeyError:
            raise TopologyError(f"unknown host {ref!r}") from None

    # ------------------------------------------------------------------
    # VirtualWire installation
    # ------------------------------------------------------------------

    def install_virtualwire(
        self,
        nodes: Optional[List[HostRef]] = None,
        control: Optional[HostRef] = None,
        rll: bool = False,
        telemetry: bool = False,
    ) -> Frontend:
        """Splice the FIE/FAE (and optionally the RLL below it) into hosts.

        *nodes* defaults to every host; *control* defaults to the first
        host and may also be a scenario node, as in the paper's Fig 1.
        *telemetry* switches on the whole Fault Analysis surface at once
        (docs/OBSERVABILITY.md): a :class:`TraceRecorder` tap spliced above
        each engine records exactly what the protocols under test see
        (``testbed.recorder``, joined into ``report.journeys``), every
        engine narrates rule firings and fault applications into a shared
        :class:`AuditLog` (``testbed.audit_log``), and every instrumented
        layer feeds a shared :class:`~repro.analysis.MetricsRegistry`
        (``testbed.metrics``, exported via ``report.metrics``).
        """
        if self.frontend is not None:
            raise ScenarioError("VirtualWire is already installed")
        targets = (
            [self.host(ref) for ref in nodes]
            if nodes is not None
            else list(self.hosts.values())
        )
        if not targets:
            raise ScenarioError("no hosts to install VirtualWire on")
        control_host = self.host(control) if control is not None else targets[0]
        if telemetry:
            self.recorder = TraceRecorder(self.sim)
            self.audit_log = AuditLog(self.sim)
            self.metrics = MetricsRegistry()
        for host in targets:
            if self.metrics is not None:
                # Before splicing: layers register with it in attached().
                host.enable_metrics(self.metrics.node(host.name))
            if rll:
                layer = RllLayer(self.sim)
                host.chain.splice_above_driver(layer)
                self.rll_layers[host.name] = layer
            engine = VirtualWireEngine(self.sim)
            engine.audit_log = self.audit_log
            host.chain.splice_below_ip(engine)
            self.engines[host.name] = engine
            if self.recorder is not None:
                host.chain.splice_below_ip(TapLayer(self.recorder, host.name))
        if control_host.name not in self.engines:
            engine = VirtualWireEngine(self.sim)
            engine.audit_log = self.audit_log
            control_host.chain.splice_below_ip(engine)
            self.engines[control_host.name] = engine
        self.frontend = Frontend(
            self.sim, self.engines[control_host.name], self.engines
        )
        return self.frontend

    # ------------------------------------------------------------------
    # Control-path adversity (reliability testing)
    # ------------------------------------------------------------------

    def add_control_loss(self, ref: HostRef, rate: float) -> ControlLossLayer:
        """Make *ref*'s control path lossy: a seeded fraction of VirtualWire

        control frames crossing this host (both directions) is silently
        dropped below the engine.  The reliable channel's retransmission
        must mask the loss; returns the layer so tests can read its drop
        counters.  Call after :meth:`install_virtualwire`.
        """
        host = self.host(ref)
        layer = ControlLossLayer(self.sim, rate)
        host.chain.splice_above_driver(layer)
        return layer

    def crash_node(self, ref: HostRef) -> None:
        """Crash *ref* with amnesia, as a ``CRASH(node)`` action would.

        The NIC goes down and every piece of soft state — TCP connections,
        engine tables and counters, held DELAY/REORDER packets, reliable
        channel sequencing — is destroyed (docs/NODE_LIFECYCLE.md).  Call
        during a running scenario; pair with :meth:`restart_node`.
        """
        host = self.host(ref)
        engine = self.engines.get(host.name)
        if engine is None:
            raise ScenarioError(
                f"{host.name} has no VirtualWire engine; use install_virtualwire"
            )
        engine.crash_local_host()

    def restart_node(self, ref: HostRef, delay_ns: int = 0) -> None:
        """Reboot a crashed *ref* after *delay_ns*, as ``RESTART`` would.

        The node comes back with blank tables, registers with the control
        node and resumes classifying only after the CRC-verified resync
        completes.  Requires :meth:`install_virtualwire`'s front-end.
        """
        host = self.host(ref)
        if self.frontend is None:
            raise ScenarioError("restart_node requires install_virtualwire")
        self.frontend.schedule_restart(host.name, delay_ns)

    # ------------------------------------------------------------------
    # Script helpers
    # ------------------------------------------------------------------

    def node_table_fsl(self, *names: str) -> str:
        """Emit a NODE_TABLE section for the given hosts (default: all).

        Lets scripts stay address-free: the testbed knows the generated
        MAC/IP bindings.
        """
        hosts = [self.host(n) for n in names] if names else list(self.hosts.values())
        lines = ["NODE_TABLE"]
        for host in hosts:
            lines.append(f"  {host.name} {host.mac} {host.ip}")
        lines.append("END")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Scenario execution
    # ------------------------------------------------------------------

    def run_scenario(
        self,
        script: Union[str, CompiledProgram],
        scenario: Optional[str] = None,
        workload: Optional[Callable[[], None]] = None,
        max_time: int = seconds(60),
        inactivity_ns: Optional[int] = None,
    ) -> ScenarioReport:
        """Compile *script*, run it to completion, and return the report.

        *workload* is invoked shortly after every engine has started, so
        protocol traffic begins only once fault injection is armed.
        *max_time* bounds virtual time as a fail-safe, and
        :data:`MAX_EVENTS` the number of events (a runaway guard).
        """
        if self.frontend is None:
            raise ScenarioError("call install_virtualwire() before run_scenario()")
        program = (
            script
            if isinstance(script, CompiledProgram)
            else self.compile_cached(script, scenario)
        )
        self.topology.validate(host.nic for host in self.hosts.values())
        frontend = self.frontend
        frontend.start_scenario(program, on_running=workload, inactivity_ns=inactivity_ns)
        sim = self.sim
        deadline = sim.now + max_time
        last_event = sim.events_processed + MAX_EVENTS
        # Drain unpolled up to the idle mark: a finish stops the drain itself
        # through sim.stop(), and no event at or before the mark can leave
        # the scenario idle.  Activity may have moved the mark meanwhile:
        # drain on.  Otherwise the next event is the first past the mark:
        # fire it alone and poll after it — unless it stopped the simulator
        # (a finish, or a workload's sim.stop(), which is never polled).
        while not frontend.finished:
            mark = frontend.idle_mark()
            ended = sim.drain(min(mark, deadline), last_event - sim.events_processed)
            if (
                ended is not DrainEnd.DEADLINE
                or mark >= deadline
                or sim.events_processed == last_event
            ):
                break
            if frontend.idle_mark() == mark:
                ended = sim.drain(deadline, 1)
                if ended is DrainEnd.STOPPED or frontend.poll() or ended is not DrainEnd.BUDGET:
                    break
        if not frontend.finished:
            if ended is DrainEnd.DRAINED and sim.events_processed < last_event:
                # Nothing left to happen: the limiting case of inactivity.
                # (QUIESCED is reserved for runs that never started.)
                frontend.force_finish(
                    EndReason.INACTIVITY if frontend.started else EndReason.QUIESCED
                )
            else:
                # The deadline or the event budget cut the run short (as
                # would a workload calling ``sim.stop()``).
                frontend.force_finish(EndReason.MAX_TIME)
        # Let in-flight shutdown control frames drain briefly so engines
        # disable before the caller inspects them.
        self.sim.run_for(seconds(0.01))
        report = frontend.build_report()
        if self.metrics is not None:
            report.audit_events_dropped = self.audit_log.dropped
            report.trace_records_dropped = self.recorder.dropped_records
            report.journeys = [
                journey.as_dict()
                for journey in correlate_journeys(self.recorder, self.audit_log)
            ]
            report.metrics = self.metrics.snapshot()
        return report

    def __repr__(self) -> str:
        return (
            f"Testbed(hosts={sorted(self.hosts)}, "
            f"virtualwire={'installed' if self.frontend else 'absent'})"
        )
