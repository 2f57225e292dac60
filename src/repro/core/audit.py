"""Execution audit trail for the FIE/FAE.

The paper contrasts VirtualWire with "collecting tcpdump traces and
inspecting them manually" (§1) — but when a scenario misbehaves, the
tester still needs to see *why* the engine did what it did.  The audit
log records the engine-level narrative: which conditions fired where and
when, which faults were applied to which packets, and the verdict events —
a rule-level account that complements the packet-level
:class:`repro.trace.TraceRecorder`.

Auditing is off by default and costs nothing when disabled (a None check
on the hot path).  ``Testbed.install_virtualwire(telemetry=True)`` enables
it together with the trace taps and the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim import Simulator, format_time

#: Events kept before the log saturates; later ones are counted in
#: ``dropped`` (a test lowers ``log.max_events``).
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class AuditEvent:
    """One engine decision."""

    time_ns: int
    node: str
    kind: str  # "condition" | "fault" | "fail" | "stop" | "error" | "start"
    detail: str
    #: flow-invariant digest of the frame the decision applied to, when
    #: any ("" otherwise) — the join key for repro.analysis journeys.
    digest: str = ""

    def render(self) -> str:
        return f"{format_time(self.time_ns):>14} {self.node:<10} {self.kind:<10} {self.detail}"


class AuditLog:
    """Append-only, bounded log shared by every engine of a testbed."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.max_events = MAX_EVENTS
        self.events: List[AuditEvent] = []
        self.dropped = 0

    def record(self, node: str, kind: str, detail: str, digest: str = "") -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(AuditEvent(self.sim.now, node, kind, detail, digest))

    def recorder_for(self, node: str) -> Callable[[str, str], None]:
        """A per-node closure the engine hands to its runtime."""

        def record(kind: str, detail: str) -> None:
            self.record(node, kind, detail)

        return record

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def select(self, kind: Optional[str] = None) -> List[AuditEvent]:
        return [event for event in self.events if kind is None or event.kind == kind]

    def render(self, kind: Optional[str] = None) -> str:
        events = self.select(kind=kind)
        lines = [event.render() for event in events]
        if self.dropped:
            # A saturated log must never read as a complete narrative.
            lines.append(
                f"... {self.dropped} event{'s' if self.dropped != 1 else ''} "
                f"dropped (log saturated at {self.max_events})"
            )
        return "\n".join(lines)
