"""The seven workloads: set-up, one timed unit, and its oracle.

Each workload is a class.  Constructing it is the set-up (fixtures that do
not depend on a testbed: scripts, specs, temp dirs, a worker subprocess);
``prepare()`` readies one unit outside the timed region, ``run()`` is the
timed region, ``check()`` turns what ``run()`` returned into a
:class:`Unit` — simulated facts, the operations attempted and failed — and
``close()`` tears everything down even after a failure.  The product is
driven only through its public functions and sees only generated inputs:
``seed`` feeds ``Testbed(seed=)`` / ``SweepSpec(base_seed=)``.

Sizes are for ``scale=1.0`` and were chosen on a 2-core shared VM so a unit
takes 0.1-0.5 s of host time (1 s for ``fault_campaign``): a child process
then times several units in its 2 s and reports their median, which a burst
of host noise on one unit cannot move.  ``--quick`` runs a tenth of each.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.fig7 import fig7_script
from repro.bench.fig8 import fig8_script
from repro.bench.harness import RECEIVER_PORT, SENDER_PORT, two_node_testbed
from repro.core.autogen import ScriptGenerator, rether_spec
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sim import NS_PER_SEC, ms, seconds
from repro.sweep import SweepSpec, run_script_task, run_sweep, sleep_task
from repro.workloads.bulk import BulkReceiver, PacedSender
from repro.workloads.echo import EchoClient, EchoServer

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


@dataclass
class Unit:
    """What one timed unit did, in simulated facts and operation counts."""

    attempted: int
    failed: int
    #: sha256 over the unit's simulated facts; identical for every repeat.
    digest: str
    #: driver-counted frames (scenario workloads) / cells completed.
    frames: int = 0
    cells: int = 0
    #: per-cell host seconds from ``SweepResult.wall_seconds``.
    cell_walls: List[float] = field(default_factory=list)
    #: simulated facts, for the printout (never host time).
    facts: Dict[str, Any] = field(default_factory=dict)
    #: why the oracle failed the unit, empty when it passed.
    problems: List[str] = field(default_factory=list)


def _digest(facts: Any) -> str:
    if not isinstance(facts, bytes):
        facts = json.dumps(facts, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(facts).hexdigest()


def _unit(attempted: int, failed: int, problems: List[str], **fields: Any) -> Unit:
    """A unit whose oracle failure counts every operation as failed."""
    return Unit(attempted, attempted if problems else failed, problems=problems, **fields)


def driver_frames(testbed) -> int:
    return sum(h.driver.tx_frames + h.driver.rx_frames for h in testbed.hosts.values())


class Workload:
    name = "?"
    #: units a child times at least, whatever its budget.
    min_units = 1

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def warm_up(self) -> None:
        """One unit at a tenth of the size, so lazy imports, compile caches and
        connection state are paid in set-up, where they are reported."""
        small = type(self)(self.seed, self.scale / 10, self.workdir)
        try:
            small.prepare()
            small.check(small.run())
        finally:
            small.close()

    def prepare(self) -> None:
        pass

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, raw: Any) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- scenario tier -----------------------------------------------------------------

OFFERED_MBPS = 90.0


class Fig7(Workload):
    """The Fig 7 pump, built as ``repro.bench.frames.measure_frames_point``
    builds it so the harness holds the testbed and can read its counters."""

    install_vw = True
    sim_seconds = 0.1

    def run(self):
        duration = max(int(self.sim_seconds * self.scale * NS_PER_SEC), 2_000_000)
        tb, node1, node2 = two_node_testbed(
            seed=self.seed, medium="hub", install_vw=self.install_vw, rll=self.install_vw
        )
        receiver = BulkReceiver(node2, RECEIVER_PORT)
        state = {}

        def workload() -> None:
            state["sender"] = PacedSender(
                node1,
                node2.ip,
                RECEIVER_PORT,
                offered_bps=OFFERED_MBPS * 1e6,
                duration_ns=duration,
                local_port=SENDER_PORT,
            )

        if self.install_vw:
            tb.run_scenario(
                fig7_script(),
                workload=workload,
                max_time=duration + seconds(5),
                inactivity_ns=ms(200),
            )
        else:
            workload()
            tb.sim.run_until(duration + seconds(2))
        return tb, receiver, state["sender"], duration

    def check(self, raw) -> Unit:
        tb, receiver, sender, duration = raw
        goodput = receiver.goodput_bps() / 1e6
        facts = {
            "frames": driver_frames(tb),
            "events": tb.sim.events_processed,
            "sim_ns": tb.sim.now,
            "goodput_mbps": goodput,
            "retransmissions": sender.connection.retransmissions,
        }
        problems = []
        # A pump shorter than ~10 ms never leaves slow start; the goodput
        # oracle is the paper's claim about the steady state.
        if duration >= 10_000_000 and abs(goodput - OFFERED_MBPS) > 0.10 * OFFERED_MBPS:
            problems.append(f"goodput {goodput:.1f} Mbps not within 10% of {OFFERED_MBPS:g}")
        return _unit(1, 0, problems, digest=_digest(facts), frames=facts["frames"], cells=1, facts=facts)


class Fig7Vw(Fig7):
    name = "fig7_vw"


class Fig7Bare(Fig7):
    name = "fig7_bare"
    install_vw = False
    sim_seconds = 0.3


class EchoSmall(Workload):
    name = "echo_small"
    probes = 1000
    #: 18 bytes of UDP payload make a 60-byte frame, Ethernet's minimum.
    payload = 18

    def run(self):
        probes = max(int(self.probes * self.scale), 10)
        tb, node1, node2 = two_node_testbed(seed=self.seed, install_vw=True, rll=True)
        EchoServer(node2)
        state = {}

        def workload() -> None:
            state["client"] = EchoClient(node1, node2.ip, probes=probes, payload_size=self.payload)
            state["client"].start()

        tb.run_scenario(
            fig8_script("actions+rll", 25),
            workload=workload,
            max_time=seconds(600),
            inactivity_ns=ms(500),
        )
        return tb, state["client"], probes

    def check(self, raw) -> Unit:
        tb, client, probes = raw
        answered = len(client.rtts_ns)
        facts = {
            "frames": driver_frames(tb),
            "events": tb.sim.events_processed,
            "sim_ns": tb.sim.now,
            "answered": answered,
            "mean_rtt_ns": client.mean_rtt_ns,
        }
        problems = [] if client.done else ["echo client did not finish"]
        return _unit(
            probes,
            probes - answered,
            problems,
            digest=_digest(facts),
            frames=facts["frames"],
            cells=1,
            facts=facts,
        )


# -- campaign tier ------------------------------------------------------------------


class Campaign(Workload):
    """A workload whose unit is one ``run_sweep`` call over ``self.tasks``."""

    #: canonical bytes every unit must merge to, when the workload has any.
    reference: Optional[bytes] = None

    def check(self, outcome) -> Unit:
        rows = outcome.rows
        bad = [r for r in rows if not r.ok or r.payload.get("passed") is not True]
        problems = []
        if len(rows) != len(self.tasks):
            problems.append(f"{len(rows)} rows for {len(self.tasks)} cells")
        canonical = outcome.canonical_bytes()
        if self.reference is not None and canonical != self.reference:
            problems.append("canonical bytes differ from the same spec on plain serial")
        return _unit(
            len(self.tasks),
            len(bad),
            problems,
            digest=_digest(canonical),
            cells=len(rows),
            cell_walls=[r.wall_seconds for r in rows],
            facts={"cells": len(rows), "sim_ns": outcome.total_virtual_ns},
        )


RING = ["node1", "node2", "node3", "node4"]


#: fig5 seeds x {switch, hub} plus rether seeds x 11 generated scenarios.
FIG5_SEEDS = 16
RETHER_SEEDS = 2


def fault_spec(seed: int, scale: float, pad: str = "") -> SweepSpec:
    """The fault campaign; *pad* is appended to every script (it changes the
    compile-cache key without changing the program)."""
    spec = SweepSpec("fault_campaign", base_seed=seed)
    spec.add_grid(
        run_script_task,
        axes={
            "seed": [seed * 1000 + i for i in range(max(int(FIG5_SEEDS * scale), 1))],
            "medium": ["switch", "hub"],
        },
        script=tcp_congestion_script(canonical_node_table(2)) + pad,
        workload={"kind": "tcp_bulk", "bytes": 64 * 1024},
    )
    generator = ScriptGenerator(
        rether_spec(RING, [("node1", "node4")]), canonical_node_table(len(RING))
    )
    for name, script in generator.generate_suite().items():
        for index in range(max(int(RETHER_SEEDS * scale), 1)):
            spec.add(
                f"{name}@{index}",
                run_script_task,
                script=script + pad,
                seed=seed * 1000 + index,
                medium="bus",
                rether=True,
                workload={"kind": "tcp_feed", "chunk": 1024, "interval_ns": 2_000_000},
                max_time_ns=seconds(30),
            )
    return spec


class FaultCampaign(Campaign):
    name = "fault_campaign"
    #: four 54-cell units pool 216 per-cell times, the fewest that leave ten
    #: samples beyond the 95th percentile.
    min_units = 4

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.tasks = fault_spec(seed, scale).tasks()

    def run(self):
        return run_sweep(self.tasks, backend="serial")


class Trivial(Campaign):
    """Cells that do nothing, so the run is all sweep-tier machinery; every
    unit must merge to the bytes plain ``serial`` produces for the spec."""

    cells = 400

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.tasks = trivial_spec(self.name, seed, max(int(self.cells * scale), 16)).tasks()
        self.reference = run_sweep(self.tasks, backend="serial").canonical_bytes()
        self.root = tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir)
        self._units = 0

    def fresh_path(self, stem: str) -> str:
        self._units += 1
        return os.path.join(self.root, f"{stem}{self._units}")

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def trivial_spec(name: str, seed: int, cells: int) -> SweepSpec:
    spec = SweepSpec(name, base_seed=seed)
    spec.add_grid(sleep_task, axes={"cell": list(range(cells))}, sleep_s=0.0)
    return spec


class FleetDispatch(Trivial):
    name = "fleet_dispatch"
    cells = 700
    #: the pre-shared HMAC secret; the worker reads it from a file, the
    #: parent passes it explicitly (no ``REPRO_SWEEP_*`` variable is set).
    secret = "ledger-fleet-secret"

    def __init__(self, seed, scale, workdir, worker: Optional["LoopbackWorker"] = None) -> None:
        super().__init__(seed, scale, workdir)
        self.own_worker = worker is None
        try:
            self.worker = worker or LoopbackWorker(self.root, self.secret)
        except BaseException:
            self.close()
            raise

    def warm_up(self) -> None:
        """The warm-up campaign must reach the worker the timed units use."""
        small = FleetDispatch(self.seed, self.scale / 10, self.workdir, self.worker)
        try:
            small.check(small.run())
        finally:
            small.close()

    def run(self):
        return run_sweep(
            self.tasks, backend="tcp", hosts=self.worker.address, secret=self.secret
        )

    def check(self, outcome) -> Unit:
        unit = super().check(outcome)
        scheduler = (outcome.fleet or {}).get("scheduler", {})
        unit.facts["requeues"] = scheduler.get("requeues", 0)
        unit.facts["hedges"] = scheduler.get("hedges", 0)
        unit.facts["transport"] = "host loopback interface (127.0.0.1), one worker, one slot"
        return unit

    def close(self) -> None:
        if self.own_worker and getattr(self, "worker", None) is not None:
            self.worker.stop()
        super().close()


class LoopbackWorker:
    """One ``repro worker --slots 1`` subprocess in its own session."""

    def __init__(self, directory: str, secret: str) -> None:
        secret_file = os.path.join(directory, "fleet.secret")
        with open(secret_file, "w", encoding="utf-8") as handle:
            handle.write(secret)
        # run.py already stripped every REPRO_SWEEP_* variable from this process.
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
        self.process = subprocess.Popen(
            # --max-idle: a worker orphaned by a killed harness ends itself.
            [sys.executable, "-m", "repro", "worker", "--slots", "1", "--max-idle", "60",
             "--secret-file", secret_file],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "LISTENING":
            self.stop()
            raise RuntimeError(f"worker did not announce its port: {line!r}")
        self.address = line[1]

    @property
    def session(self) -> int:
        return self.process.pid  # start_new_session: the pid is the session id

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self.process.stdout.close()


class DurableCold(Trivial):
    name = "durable_cold"

    def prepare(self) -> None:
        self.journal = self.fresh_path("journal")
        self.cache = self.fresh_path("cache")

    def run(self):
        return run_sweep(self.tasks, backend="serial", journal=self.journal, cache_dir=self.cache)

    def check(self, outcome) -> Unit:
        unit = super().check(outcome)
        if outcome.cached_rows:
            unit.problems.append(f"{outcome.cached_rows} rows served by an empty cache")
            unit.failed = unit.attempted
        unit.facts["cached_rows"] = outcome.cached_rows
        return unit


class DurableWarm(Trivial):
    name = "durable_warm"

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.cache = self.fresh_path("cache")
        run_sweep(self.tasks, backend="serial", cache_dir=self.cache)  # the fill, not timed

    def prepare(self) -> None:
        self.journal = self.fresh_path("journal")

    def run(self):
        warm = run_sweep(self.tasks, backend="serial", journal=self.journal, cache_dir=self.cache)
        replay = run_sweep(self.tasks, backend="serial", journal=self.journal, resume=True)
        return warm, replay

    def check(self, raw) -> Unit:
        warm, replay = raw
        unit = super().check(warm)
        replayed = super().check(replay)
        cells = len(self.tasks)
        if (warm.cached_rows, replay.resumed) != (cells, cells):
            replayed.problems.append(
                f"expected {cells} cached then {cells} resumed rows, "
                f"got {warm.cached_rows} and {replay.resumed}"
            )
        unit.problems += replayed.problems
        unit.attempted += replayed.attempted
        unit.failed = unit.attempted if unit.problems else unit.failed + replayed.failed
        unit.cells += replayed.cells
        unit.facts.update(cached_rows=warm.cached_rows, resumed_rows=replay.resumed)
        return unit


REGISTRY = {
    cls.name: cls
    for cls in (Fig7Vw, Fig7Bare, EchoSmall, FaultCampaign, FleetDispatch, DurableCold, DurableWarm)
}
