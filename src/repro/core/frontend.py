"""The programming front-end on the control node (paper §3.2, §5.1).

The front-end parses the user's FSL script, compiles it into the six
tables, ships them to every participating FIE/FAE over the control plane
(INIT, checksummed and acknowledged), broadcasts START once all nodes
acknowledged, then watches for STOP/ERROR reports, the inactivity timeout,
and — through the reliable channel — every node's liveness.

Reliability (see docs/CONTROL_PLANE.md): all orchestration rides the
:mod:`repro.core.reliable` ARQ layer, so lost INIT/START/COUNTER_UPDATE
frames are retransmitted instead of hanging the run.  The front-end
additionally heartbeats every remote node while a scenario runs; a node
whose retry budget is exhausted without a scripted FAIL is declared
unreachable and the scenario concludes in a degraded mode
(:class:`EndReason.NODE_UNREACHABLE` / :class:`EndReason.CONTROL_TIMEOUT`)
naming the dead node, instead of spinning until ``max_time``.

Like the paper's implementation, the whole table set goes to every node.
Two orchestration shortcuts are taken relative to a multi-machine
deployment and documented in DESIGN.md: table *contents* travel by shared
reference (the INIT frame carries the program id and a table checksum that
the receiver verifies), and the inactivity monitor reads a shared activity
timestamp instead of sampling nodes over the network.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, List, Optional, Set

from ..errors import ScenarioError
from ..net.addresses import MacAddress
from ..sim import NS_PER_MS, NS_PER_SEC, Simulator
from .engine import VirtualWireEngine
from .report import CrashRecord, EndReason, ErrorRecord, ScenarioReport
from .tables import ActionKind, CompiledProgram

#: Inactivity window applied when the scenario declares no timeout.
DEFAULT_INACTIVITY_NS = 2 * NS_PER_SEC
#: Grace period between the last START acknowledgement and the workload.
WORKLOAD_GRACE_NS = 1 * NS_PER_MS
#: Liveness probe period while a scenario is running.  Combined with the
#: channel's retry budget (~51 ms of silence) a dead node is detected
#: within roughly one interval plus the budget.
HEARTBEAT_INTERVAL_NS = 200 * NS_PER_MS
#: INIT re-sends tolerated per node after checksum NACKs before the
#: scenario is abandoned with CONTROL_TIMEOUT.
MAX_INIT_RESENDS = 3


class NodeLifecycle(enum.Enum):
    """Front-end view of one scenario node (docs/NODE_LIFECYCLE.md).

    ``ALIVE → CRASHED → REBOOTING → RESYNCING → ALIVE``: a node leaves
    ALIVE through a scripted CRASH or FAIL, re-enters through the
    REGISTER → INIT → NODE_RESET → START rejoin handshake.
    """

    ALIVE = "alive"
    CRASHED = "crashed"
    REBOOTING = "rebooting"
    RESYNCING = "resyncing"


class Frontend:
    """Scenario orchestration running on the control node."""

    def __init__(
        self,
        sim: Simulator,
        control_engine: VirtualWireEngine,
        engines: Dict[str, VirtualWireEngine],
    ) -> None:
        self.sim = sim
        self.control_engine = control_engine
        self.engines = dict(engines)
        self._registry: Dict[int, CompiledProgram] = {}
        self._program_ids = itertools.count(1)
        control_engine.frontend = self
        for name, engine in self.engines.items():
            engine.program_registry = self._registry
            engine.activity_hook = self.touch
            # Crash notification shortcut (DESIGN.md): like activity_hook
            # this is orchestration bookkeeping, not protocol traffic — a
            # crashing node cannot announce its own death on the wire.
            engine.lifecycle_hook = lambda kind, node=name: self.node_crashed(
                node, kind
            )

        self._heartbeat = sim.timer(self._heartbeat_tick, "frontend:heartbeat")
        self.program_id = 0
        self.inactivity_ns = DEFAULT_INACTIVITY_NS
        self._reset_scenario(None, None)

    def _reset_scenario(
        self,
        program: Optional[CompiledProgram],
        on_running: Optional[Callable[[], None]],
    ) -> None:
        """The per-scenario state, blank for *program* (None before the
        first scenario)."""
        nodes = program.nodes.names() if program is not None else []
        self.program = program
        self._pending_acks: Set[str] = set(nodes)
        self._pending_start_acks: Set[str] = set()
        self._workload_scheduled = False
        self._init_resends: Dict[str, int] = {}
        self.started = False
        self.start_time = 0
        self.last_activity = self.sim.now
        self.errors: list = []
        self.control_errors: List[str] = []
        self.unreachable_nodes: List[str] = []
        self.failed_nodes: List[str] = []
        self.stop_node: Optional[str] = None
        self.stop_time: Optional[int] = None
        self.finished = False
        self.end_reason: Optional[EndReason] = None
        self.on_running = on_running
        #: per-node crash/restart state machine (docs/NODE_LIFECYCLE.md).
        self.lifecycle: Dict[str, NodeLifecycle] = {
            node: NodeLifecycle.ALIVE for node in nodes
        }
        self.crash_timeline: List[CrashRecord] = []
        self._active_crash: Dict[str, CrashRecord] = {}
        #: per-resyncing-node outstanding handshake tokens ("init",
        #: "reset:<peer>") that gate its START.
        self._resync: Dict[str, Set[str]] = {}
        #: RESTART requests that arrived before the target's CRASH did.
        self._pending_restart: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Scenario lifecycle
    # ------------------------------------------------------------------

    def start_scenario(
        self,
        program: CompiledProgram,
        on_running: Optional[Callable[[], None]] = None,
        inactivity_ns: Optional[int] = None,
    ) -> None:
        """Distribute *program* and begin execution."""
        for node in program.nodes.names():
            if node not in self.engines:
                raise ScenarioError(
                    f"scenario references node {node!r} but no engine is "
                    f"installed there"
                )
        control_name = None
        for node in program.nodes.names():
            if self._is_control_node(program.nodes.get(node).mac):
                control_name = node
        # The control node hosts the front-end: crashing it would end the run.
        for action in program.actions:
            if (
                action.kind in (ActionKind.CRASH, ActionKind.RESTART)
                and action.target_node is not None
                and action.target_node == control_name
            ):
                raise ScenarioError(
                    f"{action.kind.value}({control_name}) targets the control "
                    f"node; the orchestrator cannot crash or reboot itself"
                )
        self._reset_scenario(program, on_running)
        self.program_id = next(self._program_ids)
        self._registry[self.program_id] = program
        if inactivity_ns is not None:
            self.inactivity_ns = inactivity_ns
        elif program.timeout_ns:  # 0: the script declares none
            self.inactivity_ns = program.timeout_ns
        else:
            self.inactivity_ns = DEFAULT_INACTIVITY_NS
        # A fresh scenario starts a fresh control-plane epoch: sequence
        # numbers, dedup state and retransmit timers all reset.
        for engine in self.engines.values():
            engine.channel.reset()
        checksum = program.checksum()
        for node in program.nodes.names():
            self.control_engine.send_init(
                program.nodes.get(node).mac, self.program_id, checksum
            )

    def _is_control_node(self, mac: MacAddress) -> bool:
        return self.control_engine.host is not None and mac == self.control_engine.host.mac

    def on_init_ack(self, src_mac: MacAddress, program_id: int) -> None:
        if program_id != self.program_id or self.program is None:
            return
        entry = self.program.nodes.by_mac(src_mac)
        if entry is None:
            return
        if entry.name in self._resync:
            self._resync_init_acked(entry.name)
            return
        self._pending_acks.discard(entry.name)
        if not self._pending_acks and not self.started:
            self._broadcast_start()

    def on_init_nack(self, src_mac: MacAddress, program_id: int, computed: int) -> None:
        """A node refused INIT: its view of the tables fails the checksum."""
        if program_id != self.program_id or self.program is None or self.finished:
            return
        entry = self.program.nodes.by_mac(src_mac)
        node = entry.name if entry is not None else str(src_mac)
        expected = self.program.checksum()
        self.control_errors.append(
            f"{node}: INIT checksum mismatch (expected {expected:#010x}, "
            f"node computed {computed:#010x})"
        )
        resends = self._init_resends.get(node, 0)
        if resends >= MAX_INIT_RESENDS:
            self.unreachable_nodes.append(node)
            self._finish(EndReason.CONTROL_TIMEOUT)
            return
        self._init_resends[node] = resends + 1
        record = self._active_crash.get(node)
        if record is not None and node in self._resync:
            record.resync_rounds += 1
        self.control_engine.send_init(src_mac, self.program_id, expected)

    def _broadcast_start(self) -> None:
        assert self.program is not None
        self.started = True
        self.start_time = self.sim.now
        self.last_activity = self.sim.now
        # Gate the workload on every engine acknowledging START, so fault
        # injection is armed everywhere before protocol traffic begins even
        # when the START frame itself needs retransmitting.
        self._pending_start_acks = set(self.program.nodes.names())
        for node in self.program.nodes.names():
            self.control_engine.send_start(
                self.program.nodes.get(node).mac,
                self.program_id,
                on_acked=lambda n=node: self._on_start_acked(n),
            )
        self._heartbeat.start(HEARTBEAT_INTERVAL_NS)

    def _on_start_acked(self, node: str) -> None:
        self._pending_start_acks.discard(node)
        if not self._pending_start_acks:
            self._schedule_workload()

    def _schedule_workload(self) -> None:
        if self._workload_scheduled or self.finished:
            return
        self._workload_scheduled = True
        if self.on_running is not None:
            self.sim.after(WORKLOAD_GRACE_NS, self.on_running, "frontend:workload")

    def shutdown(self) -> None:
        """Broadcast SHUTDOWN so every engine stops intercepting."""
        if self.program is None:
            return
        for node in self.program.nodes.names():
            self.control_engine.send_shutdown(
                self.program.nodes.get(node).mac, self.program_id
            )

    # ------------------------------------------------------------------
    # Liveness supervision
    # ------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self.finished or self.program is None:
            return
        for node in self.program.nodes.names():
            if node in self.unreachable_nodes or node in self.failed_nodes:
                continue
            if self.lifecycle.get(node) in (
                NodeLifecycle.REBOOTING,
                NodeLifecycle.RESYNCING,
            ):
                # Mid-rejoin: the node is expected silent (REBOOTING) or
                # already exchanging INIT/START with us (RESYNCING).
                continue
            mac = self.program.nodes.get(node).mac
            if self._is_control_node(mac):
                continue  # a looped heartbeat would count in the pinned reports
            self.control_engine.send_heartbeat(mac)
        if not self.finished:
            self._heartbeat.start(HEARTBEAT_INTERVAL_NS)

    def node_unreachable(self, peer_mac: MacAddress) -> None:
        """The control engine's retry budget toward *peer_mac* ran out."""
        if self.finished or self.program is None:
            return
        entry = self.program.nodes.by_mac(peer_mac)
        node = entry.name if entry is not None else str(peer_mac)
        state = self.lifecycle.get(node)
        if state is not None and state is not NodeLifecycle.ALIVE:
            # The script took this node down (CRASH/FAIL: the engine's
            # lifecycle_hook moved it off ALIVE before any retry budget
            # could run out) or it is mid rejoin: silence is the
            # experiment, not an orchestration failure — no false
            # NODE_UNREACHABLE.
            if node not in self.failed_nodes:
                self.failed_nodes.append(node)
            return
        if node not in self.unreachable_nodes:
            self.unreachable_nodes.append(node)
        self._finish(
            EndReason.NODE_UNREACHABLE if self.started else EndReason.CONTROL_TIMEOUT
        )

    # ------------------------------------------------------------------
    # Crash/restart lifecycle (docs/NODE_LIFECYCLE.md)
    # ------------------------------------------------------------------

    def node_crashed(self, node: str, kind: str) -> None:
        """A scripted CRASH (*kind* ``"crash"``) or FAIL (``"fail"``) fired.

        Both open a :class:`CrashRecord` and move the node to CRASHED so a
        later RESTART can find it.  A CRASH additionally tears down the
        control node's channel state toward the dead peer at once — its
        TCP-equivalent connections died with the host, so retransmitting
        into the void (and eventually declaring the node unreachable)
        would model a channel that no longer exists.  FAIL keeps the
        paper's original NIC-down-only semantics: the control plane only
        learns of the silence through its retry budget.
        """
        if self.finished or self.program is None:
            return
        if self.lifecycle.get(node) is not NodeLifecycle.ALIVE:
            return
        record = CrashRecord(node=node, kind=kind, crash_time_ns=self.sim.now)
        self.crash_timeline.append(record)
        self._active_crash[node] = record
        self.lifecycle[node] = NodeLifecycle.CRASHED
        if kind == "crash":
            if node not in self.failed_nodes:
                self.failed_nodes.append(node)
            entry = self.program.nodes.get(node)
            if entry is not None and self.control_engine.host is not None:
                self.control_engine.host.on_peer_reboot(entry.mac)
        delay_ns = self._pending_restart.pop(node, None)
        if delay_ns is not None:
            self.schedule_restart(node, delay_ns)

    def schedule_restart(self, node: str, delay_ns: int) -> None:
        """A RESTART action fired: reboot *node* after *delay_ns*.

        RESTART arms a reboot rather than demanding the node already be
        down: the CRASH of a ``CRASH(n); RESTART(n, d)`` rule executes at
        *n* itself while the RESTART request travels from the rule's home
        node, so either may reach the front-end first.  A request for a
        still-ALIVE node is therefore held and fires when its crash
        notification lands.
        """
        if self.finished or self.program is None:
            return
        state = self.lifecycle.get(node)
        if state is NodeLifecycle.ALIVE:
            self._pending_restart.setdefault(node, delay_ns)
            return
        if state is not NodeLifecycle.CRASHED:
            self.control_errors.append(
                f"RESTART({node}) ignored: node is "
                f"{state.value if state is not None else 'unknown'}, not crashed"
            )
            return
        # Claim the reboot now so a duplicate RESTART is one reboot.
        self.lifecycle[node] = NodeLifecycle.REBOOTING
        self.sim.after(delay_ns, lambda: self._reboot_node(node), "frontend:restart")

    def _reboot_node(self, node: str) -> None:
        if self.finished or self.program is None:
            return
        if self.lifecycle.get(node) is not NodeLifecycle.REBOOTING:
            return
        record = self._active_crash.get(node)
        if record is not None:
            record.reboot_time_ns = self.sim.now
        # Our own channel state toward the node predates its reboot (for a
        # FAIL it still holds the pre-crash sequence numbers and the dead
        # marking): reset it so the REGISTER from sequence 1 is accepted.
        entry = self.program.nodes.get(node)
        if entry is not None and self.control_engine.host is not None:
            self.control_engine.host.on_peer_reboot(entry.mac)
        engine = self.engines.get(node)
        if engine is not None and engine.host is not None:
            engine.host.reboot()

    def on_register(self, src_mac: MacAddress) -> None:
        """A rebooted node's blank engine asked to rejoin the scenario."""
        if self.finished or self.program is None:
            return
        entry = self.program.nodes.by_mac(src_mac)
        if entry is None or self.lifecycle.get(entry.name) is not NodeLifecycle.REBOOTING:
            return
        node = entry.name
        self.lifecycle[node] = NodeLifecycle.RESYNCING
        record = self._active_crash.get(node)
        if record is not None:
            record.register_time_ns = self.sim.now
            record.resync_rounds = 1
        # Tables first: peers only resend shared state once the node can
        # hold it (NODE_RESET goes out on this node's INIT_ACK).
        self._resync[node] = {"init"}
        self.control_engine.send_init(
            src_mac, self.program_id, self.program.checksum()
        )

    def _resync_init_acked(self, node: str) -> None:
        """The rebooted node verified and installed the tables."""
        waiting = self._resync.get(node)
        if waiting is None or "init" not in waiting:
            return
        waiting.discard("init")
        index = self._node_index(node)
        for peer in self.program.nodes.names():
            if peer == node:
                continue
            peer_mac = self.program.nodes.get(peer).mac
            if self._is_control_node(peer_mac):
                # A looped NODE_RESET would restart our sequence numbers toward
                # the node after our INIT: it would drop the START as a duplicate.
                continue
            if self.lifecycle.get(peer) is not NodeLifecycle.ALIVE:
                continue
            # Every live peer must restart its channel epoch toward the
            # rebooted node (and replay its shared state) before START.
            waiting.add(f"reset:{peer}")
            self.control_engine.send_node_reset(
                peer_mac,
                index,
                on_acked=lambda n=node, p=peer: self._on_reset_acked(n, p),
            )
        # The control node's own shared state replays directly.
        if self.control_engine.runtime is not None:
            self.control_engine.runtime.resend_state_to(node)
        self._maybe_start_resynced(node)

    def _on_reset_acked(self, node: str, peer: str) -> None:
        waiting = self._resync.get(node)
        if waiting is None:
            return
        waiting.discard(f"reset:{peer}")
        self._maybe_start_resynced(node)

    def _maybe_start_resynced(self, node: str) -> None:
        waiting = self._resync.get(node)
        if waiting is None or waiting or self.finished:
            return
        del self._resync[node]
        mac = self.program.nodes.get(node).mac
        self.control_engine.send_start(
            mac, self.program_id, on_acked=lambda n=node: self._node_rejoined(n)
        )

    def _node_rejoined(self, node: str) -> None:
        """The rebooted node acknowledged START: it is classifying again."""
        if self.finished:
            return
        self.lifecycle[node] = NodeLifecycle.ALIVE
        record = self._active_crash.pop(node, None)
        if record is not None:
            record.rejoin_time_ns = self.sim.now
        if node in self.failed_nodes:
            self.failed_nodes.remove(node)

    def _node_index(self, node: str) -> int:
        for index, entry in enumerate(self.program.nodes.entries):
            if entry.name == node:
                return index
        raise ScenarioError(f"node {node!r} is not part of the scenario")

    # ------------------------------------------------------------------
    # Reports from engines
    # ------------------------------------------------------------------

    def touch(self) -> None:
        """A classified packet event happened somewhere in the testbed."""
        self.last_activity = self.sim.now

    def record_error(self, node: str, condition_id: int, action_id: int) -> None:
        line = 0
        if self.program is not None and condition_id < len(self.program.conditions):
            line = self.program.conditions[condition_id].line
        self.errors.append(
            ErrorRecord(node, condition_id, action_id, self.sim.now, line)
        )

    def record_stop(self, node: str, condition_id: int) -> None:
        if self.stop_time is None:
            self.stop_node = node
            self.stop_time = self.sim.now
        self._finish(EndReason.STOP)

    # ------------------------------------------------------------------
    # Progress monitoring
    # ------------------------------------------------------------------

    def idle_mark(self) -> int:
        """The instant :meth:`poll` stays false through.

        Activity only moves ``last_activity`` forward to the clock, and
        START sets it to the clock, so no event at or before this instant
        can leave the scenario idle: a run loop fires those unpolled and
        polls after the first event past the mark, unless activity has
        moved the mark meanwhile.
        """
        return (self.last_activity if self.started else self.sim.now) + self.inactivity_ns

    def poll(self) -> bool:
        """Check the inactivity timeout after an event past :meth:`idle_mark`;
        true once the scenario has finished."""
        if (
            self.started
            and not self.finished
            and self.sim.now - self.last_activity > self.inactivity_ns
        ):
            self._finish(EndReason.INACTIVITY)
        return self.finished

    def _finish(self, reason: EndReason) -> None:
        if not self.finished:
            self.finished = True
            self.end_reason = reason
            self.sim.stop()  # the run loop's cue: no event after this one
            self._heartbeat.stop()
            self.shutdown()

    def force_finish(self, reason: EndReason) -> None:
        """Run-loop bound reached: conclude with *reason*."""
        self._finish(reason)

    # ------------------------------------------------------------------
    # Report assembly
    # ------------------------------------------------------------------

    def build_report(self) -> ScenarioReport:
        assert self.program is not None, "no scenario was run"
        expects_stop = any(
            a.kind is ActionKind.STOP for a in self.program.actions
        )
        counters: Dict[str, Dict[str, int]] = {}
        engine_stats: Dict[str, Dict[str, int]] = {}
        for node in self.program.nodes.names():
            engine = self.engines.get(node)
            if engine is None:
                continue
            engine_stats[node] = engine.stats.as_dict()
            if engine.runtime is not None:
                counters[node] = engine.runtime.counters_snapshot()
        final_counters: Dict[str, int] = {}
        for spec in self.program.counters:
            home_view = counters.get(spec.home_node)
            if home_view is not None:
                final_counters[spec.name] = home_view[spec.name]
        return ScenarioReport(
            scenario_name=self.program.scenario_name,
            end_reason=self.end_reason or EndReason.QUIESCED,
            duration_ns=self.sim.now - self.start_time if self.started else 0,
            errors=list(self.errors),
            stop_node=self.stop_node,
            stop_time_ns=self.stop_time,
            expects_stop=expects_stop,
            declared_timeout=self.program.timeout_ns > 0,
            counters=counters,
            final_counters=final_counters,
            engine_stats=engine_stats,
            unreachable_nodes=list(self.unreachable_nodes),
            failed_nodes=list(self.failed_nodes),
            control_errors=list(self.control_errors),
            crash_timeline=list(self.crash_timeline),
        )
