"""The Fault Injection and Analysis Engine (FIE/FAE) — paper §3.3, §5.2.

One :class:`VirtualWireEngine` is spliced into each testbed node's frame
chain between the device driver (or the RLL, when enabled) and the IP
stack — our equivalent of the paper's Netfilter hook.  It intercepts every
frame in both directions and runs the Fig 4(b) control flow: classify →
update counters → evaluate terms/conditions → trigger actions, where a
fault-type action may consume, hold, duplicate or rewrite the very packet
being processed, and counter-type actions release it.

The engine also terminates the control plane: INIT/START/SHUTDOWN
orchestration from the front-end, COUNTER_UPDATE/TERM_STATUS state exchange
with peer engines, and ERROR/STOP reports back to the control node.

Processing cost is charged in virtual time — a base cost per intercepted
packet, a per-filter-entry comparison cost (the linear scan of Fig 8), and
per-table-touch/per-action costs — serialised through a per-engine
busy-until clock so bursts queue behind each other like they would on one
CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analysis.journey import frame_digest
from ..errors import ControlChecksumError, ControlPlaneError
from ..net.addresses import MacAddress
from ..net.fastpath import intern_mac
from ..net.frame import ETHERTYPE_VW_CONTROL
from ..stack.layers import FrameLayer
from .classify import Classifier
from .control import ControlMessage, ControlType
from .faults import DelayQueue, ReorderBuffer, apply_modify
from .reliable import ReliableControlPlane
from .runtime import NodeRuntime, RuntimeHooks
from .tables import ActionKind, CompiledProgram, Direction


class EngineStats:
    """Counters describing everything an engine did during a scenario."""

    __slots__ = (
        "packets_intercepted",
        "packets_classified",
        "packets_dropped",
        "packets_delayed",
        "packets_reordered",
        "packets_duplicated",
        "packets_modified",
        "control_frames_sent",
        "control_frames_received",
        "state_frames_sent",
        "control_retransmits",
        "control_duplicates_dropped",
        "control_acks_sent",
        "control_acks_received",
        "control_peer_failures",
        "control_sends_suppressed",
        "heartbeats_sent",
        "heartbeats_received",
        "init_checksum_failures",
        "filter_entries_scanned",
        "cost_charged_ns",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter, in place: the reliable channel holds this
        object for the engine's whole life."""
        for field in self.__slots__:
            setattr(self, field, 0)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}


class VirtualWireEngine(FrameLayer, RuntimeHooks):
    """The per-node FIE/FAE, implemented as a splice-in frame layer."""

    def __init__(self, sim) -> None:
        FrameLayer.__init__(self, "virtualwire")
        self.sim = sim
        self.program: Optional[CompiledProgram] = None
        self.runtime: Optional[NodeRuntime] = None
        self.classifier: Optional[Classifier] = None
        self.enabled = False
        self.control_mac = None
        #: shared with the front-end: program id -> CompiledProgram.
        self.program_registry: Dict[int, CompiledProgram] = {}
        #: set on the control node's engine only.
        self.frontend = None
        #: out-of-band activity ping for the inactivity timeout (see
        #: DESIGN.md: orchestration bookkeeping, not protocol traffic).
        self.activity_hook: Optional[Callable[[], None]] = None
        #: front-end lifecycle notification: called with "crash"/"fail"
        #: the instant a scripted crash takes this host down.
        self.lifecycle_hook: Optional[Callable[[str], None]] = None
        #: optional shared audit trail (repro.core.audit.AuditLog).
        self.audit_log = None
        self.stats = EngineStats()
        #: control frames whose bytes did not parse, over the engine's life.
        #: Not an EngineStats slot: those feed every report's pinned digest.
        self.control_malformed_discarded = 0
        #: well-formed control messages naming a program, counter, term or
        #: node index this engine lacks; a plain attribute for the same reason.
        self.control_rejected = 0
        #: ARQ layer: sequencing, ACKs, retransmission, dedup (§5.2).
        self.channel = ReliableControlPlane(sim, self._transmit_control, self.stats)
        self.channel.on_peer_failed = self._on_peer_failed
        self._busy_until = 0
        self._delay_queue = DelayQueue(sim, self._forward)
        self._reorder_buffer = ReorderBuffer(self._forward)
        self._modify_rng = None
        #: bumped by every crash: deferred forwards from a previous life
        #: check it and die instead of delivering frames post-crash.
        self._life_epoch = 0
        # Metric handles (repro.analysis), pre-resolved in attached();
        # None unless the testbed enabled telemetry — the zero-cost path.
        self._m_packets = None
        self._m_faults = None
        self._m_cost = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attached(self) -> None:
        self._modify_rng = self.sim.random.stream(f"fault:modify:{self.host.name}")
        metrics = getattr(self.host, "metrics", None)
        if metrics is not None:
            self.arm_metrics(metrics)

    def arm_metrics(self, metrics) -> None:
        """Pre-resolve metric handles from a :class:`NodeMetrics`."""
        self._m_packets = metrics.counter("engine", "packets_intercepted")
        self._m_faults = metrics.counter("engine", "faults_applied")
        self._m_cost = metrics.histogram("engine", "cost_ns")
        self._delay_queue.depth_gauge = metrics.gauge("engine", "delay_queue_depth")

    @property
    def node_name(self) -> str:
        return self.host.name if self.host is not None else "?"

    def install_program(self, program: CompiledProgram) -> None:
        """Load the six tables (normally driven by an INIT control frame)."""
        self.program = program
        self.stats.reset()
        self._busy_until = 0
        if self.node_name in program.nodes:
            self.runtime = NodeRuntime(self.node_name, program, hooks=self)
            self.classifier = Classifier(program.filters)
            if self.audit_log is not None:
                self.runtime.audit = self.audit_log.recorder_for(self.node_name)
        else:
            # Not a scenario node (e.g. a dedicated control host): the
            # engine only relays control traffic.
            self.runtime = None
            self.classifier = None

    def start_scenario(self) -> None:
        self.enabled = True
        if self.runtime is not None:
            self.runtime.start()
        if self.host is not None:
            # After a reboot this releases the layers above (e.g. Rether)
            # to resume protocol work — tables are armed again first.
            self.host.on_engine_started()

    def disable(self) -> None:
        self.enabled = False
        self._reorder_buffer.flush()

    # ------------------------------------------------------------------
    # Host crash/reboot lifecycle
    # ------------------------------------------------------------------

    def on_host_crash(self) -> None:
        """Crash with amnesia: the engine's entire soft state is lost.

        Tables, runtime, classification index, channel sequencing, held
        DELAY/REORDER packets and the busy-until clock all vanish — the
        node reboots into the blank state a real machine would.  The
        ``control_mac`` survives as the node's boot configuration (how a
        real deployment would know whom to register with).
        """
        self.enabled = False
        if self.runtime is not None:
            self.runtime.crashed = True
        self.runtime = None
        self.classifier = None
        self.program = None
        self.channel.reset()
        self._delay_queue.wipe()
        self._reorder_buffer.wipe()
        self._busy_until = 0
        self._life_epoch += 1
        self.stats.reset()

    def on_host_reboot(self) -> None:
        """Boot: come up with blank tables and register with control.

        The engine stays disabled — classification resumes only after the
        control node re-ships the tables (INIT, CRC-verified) and STARTs
        us again.
        """
        self.channel.reset()
        if self.control_mac is not None and self.frontend is None:
            self._send_control(
                self.control_mac, ControlMessage(ControlType.REGISTER)
            )

    def on_peer_reboot(self, mac) -> None:
        """A peer rebooted: its channel sequencing restarts from 1."""
        self.channel.reset_peer(mac)

    # ------------------------------------------------------------------
    # Frame path
    # ------------------------------------------------------------------

    def on_send(self, frame_bytes: bytes) -> None:
        if not self.enabled or self.runtime is None or _is_control(frame_bytes):
            self.pass_down(frame_bytes)
            return
        self._process(frame_bytes, Direction.SEND)

    def on_receive(self, frame_bytes: bytes) -> None:
        if _is_control(frame_bytes):
            self._handle_control(frame_bytes)
            return
        if not self.enabled or self.runtime is None:
            self.pass_up(frame_bytes)
            return
        self._process(frame_bytes, Direction.RECV)

    def _process(self, data: bytes, direction: Direction) -> None:
        self.stats.packets_intercepted += 1
        if self._m_packets is not None:
            self._m_packets.inc()
        costs = self.host.costs
        pkt_type, scanned = self.classifier.classify(data)
        self.stats.filter_entries_scanned += scanned
        cost = costs.engine_base_ns + scanned * costs.filter_match_ns
        if pkt_type is None:
            self._forward_after(cost, data, direction)
            return
        self.stats.packets_classified += 1
        src_node, dst_node = self.program.nodes.endpoint_names(data)
        runtime = self.runtime
        event = runtime.on_classified_packet(pkt_type, src_node, dst_node, direction)
        if self.activity_hook is not None:
            self.activity_hook()
        if runtime.crashed:
            return  # a CRASH rule took this host down processing the packet
        cost += (
            event.counter_touches + event.terms_evaluated + event.conditions_evaluated
        ) * costs.table_touch_ns + event.actions_fired * costs.action_ns

        duplicate = False
        for action in event.faults:
            kind = action.kind
            if self._m_faults is not None:
                self._m_faults.inc()
            if self.audit_log is not None:
                self.audit_log.record(
                    self.node_name,
                    "fault",
                    f"{kind.value} applied to {pkt_type} "
                    f"({src_node} -> {dst_node}, {direction.value})",
                    digest=frame_digest(data),
                )
            if kind is ActionKind.DROP:
                self.stats.packets_dropped += 1
                self._charge(cost)
                return
            if kind is ActionKind.DELAY:
                self.stats.packets_delayed += 1
                self._charge(cost)
                self._delay_queue.hold(data, direction, action.delay_ns)
                return
            if kind is ActionKind.REORDER:
                self.stats.packets_reordered += 1
                self._charge(cost)
                burst = self._reorder_buffer.hold(action, data, direction)
                if burst is not None:
                    # "Released in burst when the bottom half is scheduled
                    # next": the next simulator tick, not a jiffy later.
                    self.sim.after(1, self._burst, "fault:reorder-burst", args=(burst,))
                return
            if kind is ActionKind.MODIFY:
                self.stats.packets_modified += 1
                data = apply_modify(action, data, self._modify_rng)
            elif kind is ActionKind.DUP:
                self.stats.packets_duplicated += 1
                duplicate = True
        self._forward_after(cost, data, direction, duplicate)

    # -- cost-model forwarding -------------------------------------------

    def _charge(self, cost_ns: int) -> int:
        """Occupy the engine CPU for *cost_ns*; returns the release time."""
        release = max(self.sim.now, self._busy_until) + cost_ns
        self._busy_until = release
        self.stats.cost_charged_ns += cost_ns
        if self._m_cost is not None:
            self._m_cost.observe(cost_ns)
        return release

    def _forward_after(
        self, cost_ns: int, data: bytes, direction: Direction, duplicate: bool = False
    ) -> None:
        delay = self._charge(cost_ns) - self.sim.now
        epoch = self._life_epoch
        self.sim.defer(delay, self._emit, "vw:forward", epoch, data, direction, duplicate)

    def _emit(self, epoch: int, data: bytes, direction: Direction, duplicate: bool) -> None:
        if epoch != self._life_epoch:
            return  # the host crashed while this frame sat on the CPU
        self._forward(data, direction)
        if duplicate:
            self._forward(data, direction)

    def _burst(self, burst: list) -> None:
        for data, direction in burst:
            self._forward(data, direction)

    def _forward(self, data: bytes, direction: Direction) -> None:
        if direction is Direction.SEND:
            self.pass_down(data)
        else:
            self.pass_up(data)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def _transmit_control(self, dst_mac, message: ControlMessage) -> None:
        """Put one control frame on the wire (channel's raw transmit)."""
        self.stats.control_frames_sent += 1
        self.pass_down(message.to_frame(dst_mac.packed, self.host.mac.packed))

    def _send_control(self, dst_mac, message: ControlMessage, on_acked=None) -> None:
        self.channel.send(dst_mac, message, on_acked=on_acked)

    def _on_peer_failed(self, peer_mac) -> None:
        """The channel exhausted its retry budget toward *peer_mac*."""
        if self.frontend is not None:
            self.frontend.node_unreachable(peer_mac)

    def send_init(self, node_mac, program_id: int, checksum: int = 0) -> None:
        """Front-end API (control node only): ship the tables to a node."""
        self._send_control(
            node_mac, ControlMessage(ControlType.INIT, program_id, checksum)
        )

    def send_start(self, node_mac, program_id: int, on_acked=None) -> None:
        self._send_control(
            node_mac, ControlMessage(ControlType.START, program_id), on_acked=on_acked
        )

    def send_shutdown(self, node_mac, program_id: int) -> None:
        self._send_control(node_mac, ControlMessage(ControlType.SHUTDOWN, program_id))

    def send_node_reset(self, node_mac, node_index: int, on_acked=None) -> None:
        """Front-end API: tell a peer that node *node_index* rebooted."""
        self._send_control(
            node_mac,
            ControlMessage(ControlType.NODE_RESET, node_index),
            on_acked=on_acked,
        )

    def send_heartbeat(self, node_mac) -> None:
        """Front-end API: probe a node's liveness through the channel."""
        self.stats.heartbeats_sent += 1
        self._send_control(node_mac, ControlMessage(ControlType.HEARTBEAT))

    def _handle_control(self, frame_bytes: bytes) -> None:
        self.stats.control_frames_received += 1
        try:
            message = ControlMessage.parse(frame_bytes[14:])
        except ControlPlaneError:
            # Total over wire bytes: a payload no engine could have sent is
            # counted and dropped, never raised into the simulation.
            self.control_malformed_discarded += 1
            return
        src = intern_mac(frame_bytes[6:12])
        for deliverable in self.channel.on_frame(src, message):
            try:
                self._CONTROL_HANDLERS[deliverable.msg_type](self, src, deliverable)
            except ControlPlaneError:
                # An id its handler refuses: dropped, no frame ends the run.
                self.control_rejected += 1

    def verify_init_checksum(self, program: CompiledProgram, claimed: int) -> None:
        """Check an INIT frame's table checksum against the shipped tables."""
        computed = program.checksum()
        if claimed != computed:
            raise ControlChecksumError(
                f"{self.node_name}: INIT table checksum mismatch "
                f"(claimed {claimed:#010x}, computed {computed:#010x})"
            )

    def _on_init(self, src: MacAddress, message: ControlMessage) -> None:
        program = self.program_registry.get(message.a)
        if program is None:
            raise ControlPlaneError(
                f"{self.node_name}: INIT for unknown program {message.a}"
            )
        self.control_mac = src
        try:
            self.verify_init_checksum(program, message.b)
        except ControlChecksumError:
            self.stats.init_checksum_failures += 1
            self._send_control(
                src,
                ControlMessage(ControlType.INIT_NACK, message.a, program.checksum()),
            )
            return
        self.install_program(program)
        self._send_control(src, ControlMessage(ControlType.INIT_ACK, message.a))

    def _on_init_nack(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is not None:
            self.frontend.on_init_nack(src, message.a, message.b)

    def _on_heartbeat(self, src: MacAddress, message: ControlMessage) -> None:
        # The channel-level ACK already answered; just account for it.
        self.stats.heartbeats_received += 1

    def _on_init_ack(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is not None:
            self.frontend.on_init_ack(src, message.a)

    def _on_start(self, src: MacAddress, message: ControlMessage) -> None:
        self.start_scenario()

    def _on_shutdown(self, src: MacAddress, message: ControlMessage) -> None:
        self.disable()

    def _on_counter_update(self, src: MacAddress, message: ControlMessage) -> None:
        if self.runtime is None:
            return
        # Only a counter this node mirrors has a remote home: any other
        # value (its own counters included) is not this node's to take.
        if message.a not in self.runtime.kernels.mirrored:
            raise ControlPlaneError(
                f"{self.node_name}: COUNTER_UPDATE for counter {message.a}, "
                "which this node does not mirror"
            )
        self.runtime.on_counter_update(message.a, message.b)

    def _on_term_status(self, src: MacAddress, message: ControlMessage) -> None:
        if self.runtime is None:
            return
        if message.a not in self.runtime.kernels.remote_terms:
            raise ControlPlaneError(
                f"{self.node_name}: TERM_STATUS for term {message.a}, "
                "which this node owns or does not consume"
            )
        self.runtime.on_term_status(message.a, bool(message.b))

    def _on_error_report(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is not None:
            node = self.program.nodes.by_mac(src) if self.program else None
            self.frontend.record_error(
                node.name if node else str(src), message.a, message.b
            )

    def _on_stop_report(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is not None:
            node = self.program.nodes.by_mac(src) if self.program else None
            self.frontend.record_stop(node.name if node else str(src), message.a)

    def _on_register(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is not None:
            self.frontend.on_register(src)

    def _on_node_reset(self, src: MacAddress, message: ControlMessage) -> None:
        if self.program is None:
            return
        if message.a >= len(self.program.nodes.entries):
            raise ControlPlaneError(
                f"{self.node_name}: NODE_RESET for unknown node index {message.a}"
            )
        entry = self.program.nodes.entries[message.a]
        self.host.on_peer_reboot(entry.mac)
        if self.runtime is not None:
            self.runtime.resend_state_to(entry.name)

    def _on_restart_report(self, src: MacAddress, message: ControlMessage) -> None:
        if self.frontend is None:
            return
        if self.program is None or message.a >= len(self.program.nodes.entries):
            raise ControlPlaneError(
                f"{self.node_name}: RESTART_REPORT for unknown node index "
                f"{message.a}"
            )
        self.frontend.schedule_restart(
            self.program.nodes.entries[message.a].name, message.b
        )

    #: control type -> handler (plain functions: called with ``self``).
    _CONTROL_HANDLERS = {
        ControlType.INIT: _on_init,
        ControlType.INIT_ACK: _on_init_ack,
        ControlType.INIT_NACK: _on_init_nack,
        ControlType.START: _on_start,
        ControlType.SHUTDOWN: _on_shutdown,
        ControlType.COUNTER_UPDATE: _on_counter_update,
        ControlType.TERM_STATUS: _on_term_status,
        ControlType.ERROR_REPORT: _on_error_report,
        ControlType.STOP_REPORT: _on_stop_report,
        ControlType.HEARTBEAT: _on_heartbeat,
        ControlType.REGISTER: _on_register,
        ControlType.NODE_RESET: _on_node_reset,
        ControlType.RESTART_REPORT: _on_restart_report,
    }

    # ------------------------------------------------------------------
    # RuntimeHooks: outbound state exchange and reports
    # ------------------------------------------------------------------

    def send_counter_update(self, counter_id: int, value: int, nodes) -> None:
        for node in sorted(nodes):
            if node == self.node_name:
                continue
            mac = self.program.nodes.get(node).mac
            self.stats.state_frames_sent += 1
            self._send_control(
                mac, ControlMessage(ControlType.COUNTER_UPDATE, counter_id, value)
            )

    def send_term_status(self, term_id: int, status: bool, nodes) -> None:
        for node in sorted(nodes):
            if node == self.node_name:
                continue
            mac = self.program.nodes.get(node).mac
            self.stats.state_frames_sent += 1
            self._send_control(
                mac, ControlMessage(ControlType.TERM_STATUS, term_id, int(status))
            )

    def report_error(self, condition_id: int, action_id: int) -> None:
        if self.frontend is not None:
            self.frontend.record_error(self.node_name, condition_id, action_id)
        elif self.control_mac is not None:
            self._send_control(
                self.control_mac,
                ControlMessage(ControlType.ERROR_REPORT, condition_id, action_id),
            )

    def report_stop(self, condition_id: int) -> None:
        if self.frontend is not None:
            self.frontend.record_stop(self.node_name, condition_id)
        elif self.control_mac is not None:
            self._send_control(
                self.control_mac, ControlMessage(ControlType.STOP_REPORT, condition_id)
            )

    def fail_local_host(self) -> None:
        self.enabled = False
        if self.lifecycle_hook is not None:
            self.lifecycle_hook("fail")
        self.host.fail()

    def crash_local_host(self) -> None:
        """Execute a CRASH action: take this host down with amnesia."""
        self.enabled = False
        if self.lifecycle_hook is not None:
            self.lifecycle_hook("crash")
        self.host.crash()

    def request_restart(self, target_node: str, delay_ns: int) -> None:
        """Execute a RESTART action: ask the front-end to reboot *target*."""
        if self.frontend is not None:
            self.frontend.schedule_restart(target_node, delay_ns)
            return
        if self.control_mac is None or self.program is None:
            return
        for index, entry in enumerate(self.program.nodes.entries):
            if entry.name == target_node:
                self._send_control(
                    self.control_mac,
                    ControlMessage(ControlType.RESTART_REPORT, index, delay_ns),
                )
                return

    def now(self) -> int:
        return self.sim.now

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "idle"
        return f"VirtualWireEngine({self.node_name}, {state})"


_CONTROL_ETHERTYPE = ETHERTYPE_VW_CONTROL.to_bytes(2, "big")


def _is_control(frame_bytes: bytes) -> bool:
    return frame_bytes[12:14] == _CONTROL_ETHERTYPE
