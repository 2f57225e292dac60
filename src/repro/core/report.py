"""Scenario outcome reporting."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim import format_time


class EndReason(enum.Enum):
    #: a STOP action fired (the scenario's success criterion was met).
    STOP = "stop"
    #: the declared (or default) inactivity window elapsed.
    INACTIVITY = "inactivity"
    #: the run hit the caller's wall-clock bound without concluding.
    MAX_TIME = "max-time"
    #: the simulator ran out of events (everything quiesced).
    QUIESCED = "quiesced"
    #: liveness supervision declared a node dead mid-scenario (control
    #: retransmission budget exhausted without a scripted FAIL).
    NODE_UNREACHABLE = "node-unreachable"
    #: scenario orchestration (INIT/INIT_ACK) never completed: a node was
    #: unreachable, or its table checksum never verified, before START.
    CONTROL_TIMEOUT = "control-timeout"


@dataclass(frozen=True)
class ErrorRecord:
    """One FLAG_ERROR occurrence."""

    node: str
    condition_id: int
    action_id: int
    time_ns: int
    line: int = 0

    def render(self) -> str:
        where = f" (script line {self.line})" if self.line else ""
        return (
            f"FLAG_ERROR at {format_time(self.time_ns)} on {self.node}: "
            f"condition {self.condition_id}{where}"
        )


@dataclass
class CrashRecord:
    """One node's crash/recovery arc (CRASH or FAIL, optionally RESTART).

    Times are virtual nanoseconds; fields past ``crash_time_ns`` stay
    ``None`` when the node never restarted (or never got that far).
    ``resync_rounds`` counts INIT shipments during the rejoin (1 for a
    clean resync; +1 per checksum NACK re-send).
    """

    node: str
    #: "crash" (CRASH: amnesia) or "fail" (FAIL: NIC down only).
    kind: str
    crash_time_ns: int
    reboot_time_ns: Optional[int] = None
    register_time_ns: Optional[int] = None
    rejoin_time_ns: Optional[int] = None
    resync_rounds: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "node": self.node,
            "kind": self.kind,
            "crash_time_ns": self.crash_time_ns,
            "reboot_time_ns": self.reboot_time_ns,
            "register_time_ns": self.register_time_ns,
            "rejoin_time_ns": self.rejoin_time_ns,
            "resync_rounds": self.resync_rounds,
        }

    def render(self) -> str:
        arc = f"{self.kind.upper()} at {format_time(self.crash_time_ns)}"
        if self.reboot_time_ns is not None:
            arc += f", rebooted {format_time(self.reboot_time_ns)}"
        if self.rejoin_time_ns is not None:
            arc += (
                f", rejoined {format_time(self.rejoin_time_ns)} "
                f"({self.resync_rounds} resync round"
                f"{'s' if self.resync_rounds != 1 else ''})"
            )
        return f"{self.node}: {arc}"


@dataclass
class ScenarioReport:
    """Everything the front-end learned from one scenario run."""

    scenario_name: str
    end_reason: EndReason
    duration_ns: int
    errors: List[ErrorRecord] = field(default_factory=list)
    stop_node: Optional[str] = None
    stop_time_ns: Optional[int] = None
    #: whether the script contains a STOP action (success then requires it).
    expects_stop: bool = False
    #: whether the scenario declared an inactivity timeout (ending by
    #: inactivity is then a failure — paper §6.2).
    declared_timeout: bool = False
    #: final counter values per node (each node's local view).
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: authoritative final counter values (taken from each counter's home).
    final_counters: Dict[str, int] = field(default_factory=dict)
    #: per-node engine statistics.
    engine_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: nodes liveness supervision declared dead (unexpectedly silent).
    unreachable_nodes: List[str] = field(default_factory=list)
    #: nodes taken down by a scripted FAIL (expected deaths).
    failed_nodes: List[str] = field(default_factory=list)
    #: control-plane anomalies observed and survived (e.g. INIT NACKs).
    control_errors: List[str] = field(default_factory=list)
    #: scripted crash/recovery arcs, in crash order (docs/NODE_LIFECYCLE.md).
    crash_timeline: List[CrashRecord] = field(default_factory=list)
    #: telemetry (repro.analysis) — all four populated when telemetry was
    #: enabled at install time and all four None otherwise, so default
    #: runs keep their pre-telemetry summary() key set byte-for-byte.
    #: MetricsRegistry.snapshot().
    metrics: Optional[Dict[str, object]] = None
    #: canonical frame-journey dicts.
    journeys: Optional[List[Dict[str, object]]] = None
    #: events lost to AuditLog saturation.
    audit_events_dropped: Optional[int] = None
    #: frames lost to TraceRecorder saturation.
    trace_records_dropped: Optional[int] = None

    @property
    def truncated(self) -> bool:
        """True when any enabled log saturated: narratives are incomplete."""
        return bool(self.audit_events_dropped) or bool(self.trace_records_dropped)

    @property
    def degraded(self) -> bool:
        """True when the run concluded without full control-plane health."""
        return bool(self.unreachable_nodes) or self.end_reason in (
            EndReason.NODE_UNREACHABLE,
            EndReason.CONTROL_TIMEOUT,
        )

    @property
    def passed(self) -> bool:
        """The scenario's verdict, per the paper's semantics:

        no FLAG_ERROR fired; if the script has a STOP rule it must have
        fired; a scenario with a declared timeout must not have ended
        through inactivity or the time bound; and the control plane must
        not have lost a node it did not deliberately kill.
        """
        if self.degraded:
            return False
        if self.errors:
            return False
        if self.expects_stop and self.stop_time_ns is None:
            return False
        if self.declared_timeout and self.end_reason in (
            EndReason.INACTIVITY,
            EndReason.MAX_TIME,
        ):
            return False
        if self.end_reason is EndReason.MAX_TIME and self.expects_stop:
            return False
        return True

    def summary(self) -> Dict[str, object]:
        """The report as a plain, picklable, JSON-able dict.

        This is the form sweep campaigns ship back from worker processes
        (:mod:`repro.sweep`): only builtin container/scalar types, with
        deterministic ordering (lists sorted where the source order is a
        set-like accumulation), so two runs of the same seeded scenario
        serialise to byte-identical summaries regardless of the process
        that produced them.
        """
        summary: Dict[str, object] = {
            "scenario": self.scenario_name,
            "passed": self.passed,
            "degraded": self.degraded,
            "end_reason": self.end_reason.value,
            "duration_ns": self.duration_ns,
            "stop_node": self.stop_node,
            "stop_time_ns": self.stop_time_ns,
            "errors": [
                {
                    "node": e.node,
                    "condition_id": e.condition_id,
                    "action_id": e.action_id,
                    "time_ns": e.time_ns,
                    "line": e.line,
                }
                for e in sorted(
                    self.errors,
                    key=lambda e: (e.time_ns, e.node, e.condition_id, e.action_id),
                )
            ],
            "counters": {
                node: {name: values[name] for name in sorted(values)}
                for node, values in sorted(self.counters.items())
            },
            "final_counters": {
                name: self.final_counters[name]
                for name in sorted(self.final_counters)
            },
            "engine_stats": {
                node: {name: values[name] for name in sorted(values)}
                for node, values in sorted(self.engine_stats.items())
            },
            "unreachable_nodes": sorted(self.unreachable_nodes),
            "failed_nodes": sorted(self.failed_nodes),
            "control_errors": list(self.control_errors),
            "crash_timeline": [
                record.as_dict()
                for record in sorted(
                    self.crash_timeline,
                    key=lambda r: (r.crash_time_ns, r.node),
                )
            ],
        }
        # Telemetry keys appear only when their subsystem ran, keeping the
        # default payload identical to the pre-telemetry shape.
        if self.metrics is not None:
            summary["metrics"] = self.metrics
        if self.journeys is not None:
            summary["journeys"] = self.journeys
        if self.audit_events_dropped is not None:
            summary["audit_events_dropped"] = self.audit_events_dropped
        if self.trace_records_dropped is not None:
            summary["trace_records_dropped"] = self.trace_records_dropped
        return summary

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"scenario {self.scenario_name!r}: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({self.end_reason.value} after {format_time(self.duration_ns)})"
        ]
        if self.stop_time_ns is not None:
            lines.append(
                f"  STOP fired on {self.stop_node} at {format_time(self.stop_time_ns)}"
            )
        if self.unreachable_nodes:
            lines.append(
                "  unreachable nodes (degraded run): "
                + ", ".join(sorted(self.unreachable_nodes))
            )
        if self.failed_nodes:
            lines.append("  scripted-FAIL nodes: " + ", ".join(sorted(self.failed_nodes)))
        for record in sorted(
            self.crash_timeline, key=lambda r: (r.crash_time_ns, r.node)
        ):
            lines.append(f"  lifecycle: {record.render()}")
        for note in self.control_errors:
            lines.append(f"  control plane: {note}")
        for error in self.errors:
            lines.append(f"  {error.render()}")
        for node in sorted(self.counters):
            pairs = ", ".join(f"{k}={v}" for k, v in self.counters[node].items())
            lines.append(f"  {node}: {pairs}")
        if self.journeys:
            count = len(self.journeys)
            lines.append(
                f"  {count} frame journey{'s' if count != 1 else ''} "
                f"reconstructed (repro analyze)"
            )
        if self.audit_events_dropped:
            lines.append(
                f"  WARNING: audit log saturated, "
                f"{self.audit_events_dropped} events dropped — the audit "
                f"trail is truncated"
            )
        if self.trace_records_dropped:
            lines.append(
                f"  WARNING: trace capture saturated, "
                f"{self.trace_records_dropped} frames dropped — journeys "
                f"may be incomplete"
            )
        return "\n".join(lines)
