"""Reusable campaign task functions.

Every function here is module-level (found again by ``module:qualname``) and follows
the sweep contract: it receives one :class:`~repro.sweep.spec.SweepTask`,
builds a **fresh** seeded testbed from the task's params, runs exactly one
simulation, and returns a plain JSON-able payload.  Nothing is shared
between tasks, so campaigns parallelise trivially and merge
deterministically.

:func:`run_script_task` is the workhorse: it runs the cell's FSL script
(compiled through the process's compile cache, which the parent warmed
at enumeration) on a testbed reconstructed from the program's own node
table, with a declarative workload, optional Rether ring, control-plane
loss, engine tuning and cost-model overrides.  The ``repro sweep`` CLI, the fault-matrix example,
the regression suite and the differential tests all run through it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from ..bench.harness import RECEIVER_PORT, SENDER_PORT
from ..core.testbed import Testbed
from ..sim import ms, seconds
from ..stack.costs import CostModel
from .spec import SweepError, SweepTask, reads_params

if TYPE_CHECKING:
    from ..core.tables import CompiledProgram


_COST_FIELDS = frozenset(f.name for f in dataclasses.fields(CostModel))

#: The keys each workload kind reads (see _install_workload), besides
#: ``kind``, ``sender`` and ``receiver``, which every kind reads.
_WORKLOAD_KEYS: Dict[str, frozenset] = {
    "tcp_bulk": frozenset({"bytes"}),
    "tcp_feed": frozenset({"chunk", "interval_ns"}),
    "udp_probes": frozenset({"count", "interval_ns", "port", "bytes"}),
    "none": frozenset(),
}
_WORKLOAD_COMMON = frozenset({"kind", "sender", "receiver"})


def _check_script_params(params: Mapping[str, Any]) -> Optional[str]:
    """What is wrong inside ``workload=`` / ``costs=``, checked when the case
    is enumerated: a misspelt key would otherwise run the default (a
    ``byts`` transfer is 64 KiB), a bad cost field fail only in its cell."""
    workload = params.get("workload", {})
    if not isinstance(workload, Mapping):
        return f"workload= must be a mapping, not {type(workload).__name__}"
    kind = workload.get("kind", "tcp_bulk")
    if not isinstance(kind, str) or kind not in _WORKLOAD_KEYS:
        return f"unknown workload kind {kind!r} (known: {', '.join(sorted(_WORKLOAD_KEYS))})"
    unknown = sorted(set(workload) - _WORKLOAD_KEYS[kind] - _WORKLOAD_COMMON)
    if unknown:
        accepted = ", ".join(sorted(_WORKLOAD_KEYS[kind] | _WORKLOAD_COMMON))
        return (
            f"workload kind {kind!r} reads no key {', '.join(map(repr, unknown))} "
            f"(accepted: {accepted})"
        )
    costs = params.get("costs", {})
    if not isinstance(costs, Mapping):
        return f"costs= must be a mapping, not {type(costs).__name__}"
    unknown = sorted(set(costs) - _COST_FIELDS)
    if unknown:
        return f"unknown cost-model fields: {unknown}"
    return None


def _compile(task: SweepTask) -> CompiledProgram:
    """The cell's ``script`` (for its ``scenario``), through the process's
    compile cache."""
    return Testbed.compile_cached(task.params["script"], task.param("scenario"))


def _install_workload(tb: Testbed, hosts: List, spec: Mapping[str, Any]):
    """Build the workload callable described by *spec*.

    Kinds:

    * ``tcp_bulk`` — one connection, first host to the receiver, sending
      ``bytes`` once established (the Fig 5 shape);
    * ``tcp_feed`` — same connection, then a steady ``chunk`` every
      ``interval_ns`` forever (the Rether real-time flow);
    * ``udp_probes`` — every non-sender host binds ``port``; the first
      host sends ``count`` paced datagrams to the receiver (the
      control-plane ablation shape);
    * ``none`` — scenario runs with no driven traffic.
    """
    kind = spec.get("kind", "tcp_bulk")
    sender = tb.host(spec.get("sender", hosts[0].name))
    receiver = tb.host(spec.get("receiver", hosts[-1].name))
    if kind == "none":
        return None
    if kind == "tcp_bulk":
        transfer = int(spec.get("bytes", 64 * 1024))

        def tcp_bulk() -> None:
            receiver.tcp.listen(RECEIVER_PORT)
            conn = sender.tcp.connect(
                receiver.ip, RECEIVER_PORT, local_port=SENDER_PORT
            )
            conn.on_established = lambda: conn.send(bytes(transfer))

        return tcp_bulk
    if kind == "tcp_feed":
        chunk = int(spec.get("chunk", 1024))
        interval_ns = int(spec.get("interval_ns", 2_000_000))

        def tcp_feed() -> None:
            receiver.tcp.listen(RECEIVER_PORT)
            conn = sender.tcp.connect(
                receiver.ip, RECEIVER_PORT, local_port=SENDER_PORT
            )

            def feed() -> None:
                conn.send(bytes(chunk))
                tb.sim.after(interval_ns, feed, "workload:tcp-feed")

            conn.on_established = feed

        return tcp_feed
    if kind == "udp_probes":
        count = int(spec.get("count", 50))
        interval_ns = int(spec.get("interval_ns", ms(1)))
        port = int(spec.get("port", 7))
        size = int(spec.get("bytes", 30))

        def udp_probes() -> None:
            for host in hosts:
                if host is not sender:
                    host.udp.bind(port)
            socket = sender.udp.bind(0)
            for i in range(count):
                tb.sim.after(
                    (i + 1) * interval_ns,
                    lambda: socket.sendto(bytes(size), receiver.ip, port),
                    "workload:udp-probe",
                )

        return udp_probes
    raise SweepError(f"unknown workload kind {kind!r}")


@reads_params(
    "script", "scenario", "seed", "costs", "medium", "medium_kwargs", "control", "rll",
    "telemetry", "control_loss", "rether", "rether_kwargs", "workload",
    "max_time_ns", "inactivity_ns",
    check=_check_script_params,
)
def run_script_task(task: SweepTask) -> Dict[str, Any]:
    """Run the cell's FSL ``script`` on a freshly built testbed.

    The topology is reconstructed from the program's node table (names and
    addresses exactly as the script declares them), every host on one
    medium, VirtualWire on all of them.  ``telemetry`` switches on the
    trace taps, the audit log and the metrics registry together, adding
    ``journeys``, ``metrics`` and the two saturation counts to the
    payload.  Returns the scenario report summary plus the effective seed.
    """
    program = _compile(task)
    seed = int(task.param("seed", task.seed))
    costs = dataclasses.replace(CostModel(), **task.param("costs", {}))
    tb = Testbed(seed=seed, costs=costs)
    hosts = [
        tb.add_host(entry.name, mac=str(entry.mac), ip=str(entry.ip))
        for entry in program.nodes.entries
    ]
    medium = task.param("medium", "switch")
    factory = {
        "switch": tb.add_switch,
        "hub": tb.add_hub,
        "bus": tb.add_bus,
        "link": tb.add_link,
    }.get(medium)
    if factory is None:
        raise SweepError(f"unknown medium {medium!r}")
    factory("m0", **task.param("medium_kwargs", {}))
    tb.connect("m0", *hosts)
    tb.install_virtualwire(
        control=task.param("control", hosts[0].name),
        rll=bool(task.param("rll", False)),
        telemetry=bool(task.param("telemetry", False)),
    )
    for node, rate in sorted(dict(task.param("control_loss", {})).items()):
        tb.add_control_loss(node, float(rate))
    if task.param("rether", False):
        from ..rether import install_rether

        install_rether(hosts, **task.param("rether_kwargs", {}))
    workload = _install_workload(tb, hosts, task.param("workload", {}))
    report = tb.run_scenario(
        program,
        workload=workload,
        max_time=int(task.param("max_time_ns", seconds(60))),
        inactivity_ns=task.param("inactivity_ns"),
    )
    payload = report.summary()
    payload["seed"] = seed
    return payload


@reads_params("sleep_s", "cell")
def sleep_task(task: SweepTask) -> Dict[str, Any]:
    """Sleep ``sleep_s`` of *real* time, then return a trivial payload.

    A deliberately hung "simulation" — the watchdog's test and CI-smoke
    cell: with ``run_sweep(..., task_timeout=...)`` it must land as a
    deterministic ``TIMEOUT`` row instead of stalling the campaign.
    ``cell`` is accepted and unread: the grid axis that numbers otherwise
    identical cells.
    """
    time.sleep(float(task.param("sleep_s", 3600.0)))
    return {"slept_s": float(task.param("sleep_s", 3600.0)), "passed": True}


@reads_params("script", "scenario", "variant", "seed", "bytes", "max_time_ns")
def tcp_variant_task(task: SweepTask) -> Dict[str, Any]:
    """Run a script against one TCP congestion-control variant — the
    script-reuse regression suite's cell.

    Params: ``variant`` (a :data:`repro.tcp.VARIANTS` key), ``script``
    (the unchanged Fig 5 script), optional ``bytes``/``seed``.
    """
    from ..tcp import VARIANTS

    program = _compile(task)
    variant_name = task.param("variant")
    if variant_name not in VARIANTS:
        raise SweepError(f"unknown TCP variant {variant_name!r}")
    variant = VARIANTS[variant_name]
    seed = int(task.param("seed", task.seed))
    transfer = int(task.param("bytes", 64 * 1024))
    tb = Testbed(seed=seed)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1")

    def workload() -> None:
        node2.tcp.listen(RECEIVER_PORT)
        conn = node1.tcp.connect(
            node2.ip, RECEIVER_PORT, local_port=SENDER_PORT, congestion=variant()
        )
        conn.on_established = lambda: conn.send(bytes(transfer))

    report = tb.run_scenario(
        program,
        workload=workload,
        max_time=int(task.param("max_time_ns", seconds(60))),
    )
    payload = report.summary()
    payload["variant"] = variant_name
    payload["flagged"] = bool(report.errors)
    return payload


@reads_params("offered_mbps", "with_virtualwire", "duration_ns", "seed", "script", "scenario")
def fig7_point_task(task: SweepTask) -> Dict[str, Any]:
    """One Fig 7 cell: goodput at one offered rate (see repro.bench.fig7)."""
    from ..bench.fig7 import measure_point

    point = measure_point(
        float(task.param("offered_mbps")),
        bool(task.param("with_virtualwire")),
        duration_ns=int(task.param("duration_ns")),
        seed=int(task.param("seed", 0)),
        program=_compile(task) if "script" in task.params else None,
    )
    return dataclasses.asdict(point)


@reads_params(
    "mode", "n_filters", "baseline_rtt_ns", "probes", "payload", "seed", "script", "scenario"
)
def fig8_point_task(task: SweepTask) -> Dict[str, Any]:
    """One Fig 8 cell: mean echo RTT for (mode, n_filters)."""
    from ..bench.fig8 import measure_point

    point = measure_point(
        task.param("mode"),
        int(task.param("n_filters")),
        float(task.param("baseline_rtt_ns")),
        probes=int(task.param("probes", 50)),
        payload=int(task.param("payload", 1000)),
        seed=int(task.param("seed", 0)),
        program=_compile(task) if "script" in task.params else None,
    )
    return dataclasses.asdict(point)
