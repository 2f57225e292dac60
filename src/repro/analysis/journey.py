"""Cross-node frame journeys: the FAE's distributed packet narrative.

The paper motivates VirtualWire by how tedious it is to reconstruct, from
per-host tcpdump output, what actually happened to one packet: sent at A,
silently dropped by a fault at B, retransmitted at A two RTOs later (§1).
This module performs that reconstruction automatically.  Every tap capture
(:class:`repro.trace.TraceRecorder`) and every fault decision in the audit
trail (:class:`repro.core.audit.AuditLog`) is keyed by a **flow-invariant
frame digest**; grouping by digest joins the observations of every node
into one ordered timeline per logical frame — including retransmissions,
which carry the same digest as the original by construction.

Digest invariance: the IP stack stamps a fresh ``ident`` into every
transmission and recomputes checksums, so raw bytes differ between a
segment and its retransmission.  For TCP frames the digest therefore
covers only the fields that identify the logical segment — MACs, IPs,
ports, ``seq``, flags and payload — and includes ``ack`` only for pure
ACKs (no payload, no SYN/FIN/RST), whose ack number *is* their identity.
Non-TCP frames hash their raw bytes: each UDP datagram already carries a
unique ident, and Rether/control frames are never retransmitted verbatim
at the IP layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.packet import FrameView
from ..sim import format_time


def frame_digest(data: bytes) -> str:
    """A short hex digest identifying the *logical* frame.

    Retransmissions of the same TCP segment produce the same digest;
    distinct segments (and distinct UDP datagrams) produce distinct ones.
    It hashes slices of the frame (:meth:`repro.net.FrameView.digest`).
    """
    return FrameView(data).digest()


class FrameJourney:
    """One logical frame's ordered, cross-node timeline."""

    def __init__(self, digest: str, summary: str) -> None:
        self.digest = digest
        #: tcpdump-style one-liner of the first sighting.
        self.summary = summary
        #: tap sightings: (time_ns, node, "send"|"recv").
        self.hops: List[tuple] = []
        #: audit decisions: (time_ns, node, kind, detail).
        self.events: List[tuple] = []
        #: earliest and latest sighting or decision, set once both lists
        #: are complete (:func:`correlate_journeys`).
        self.first_ns = self.last_ns = 0

    @property
    def retransmits(self) -> int:
        """Send sightings beyond the first at the originating node."""
        if not self.hops:
            return 0
        origin = next((h[1] for h in self.hops if h[2] == "send"), None)
        if origin is None:
            return 0
        sends = sum(1 for h in self.hops if h[2] == "send" and h[1] == origin)
        return max(0, sends - 1)

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-able projection (sweep payload shape)."""
        return {
            "digest": self.digest,
            "summary": self.summary,
            "first_ns": self.first_ns,
            "last_ns": self.last_ns,
            "retransmits": self.retransmits,
            "hops": [
                {"time_ns": t, "node": node, "direction": direction}
                for t, node, direction in self.hops
            ],
            "events": [
                {"time_ns": t, "node": node, "kind": kind, "detail": detail}
                for t, node, kind, detail in self.events
            ],
        }


def correlate_journeys(recorder, audit_log) -> List["FrameJourney"]:
    """Join tap captures and audit decisions into per-frame journeys.

    *recorder* is a :class:`repro.trace.TraceRecorder`; *audit_log* (a
    :class:`repro.core.audit.AuditLog`) contributes every event that
    carries a frame digest (fault applications), so no journey is built
    without the faults applied to its frame.  The result is ordered by
    ``(first_ns, digest)`` — deterministic for any capture interleaving.

    Both sources append in virtual-time order, so a journey's first and
    last entries of each list bound its times.
    """
    journeys: Dict[str, FrameJourney] = {}
    for record in recorder.records:
        digest = record.view.digest()
        journey = journeys.get(digest)
        if journey is None:
            journey = FrameJourney(digest, record.view.summary())
            journeys[digest] = journey
        journey.hops.append((record.when, record.where, record.direction))
    for event in audit_log.events:
        digest = getattr(event, "digest", "")
        if not digest:
            continue
        journey = journeys.get(digest)
        if journey is None:
            journey = FrameJourney(digest, f"<{event.kind}>")
            journeys[digest] = journey
        journey.events.append((event.time_ns, event.node, event.kind, event.detail))
    for journey in journeys.values():
        hops, events = journey.hops, journey.events
        ends = [hops[0][0], hops[-1][0]] if hops else []
        if events:
            ends += (events[0][0], events[-1][0])
        journey.first_ns, journey.last_ns = min(ends), max(ends)
    return sorted(journeys.values(), key=lambda j: (j.first_ns, j.digest))


def render_journeys(
    journeys: List[Dict[str, object]],
    limit: Optional[int] = None,
    faults_only: bool = False,
) -> str:
    """Render canonical journey dicts (as stored in reports) as timelines."""
    selected = [
        j
        for j in journeys
        if not faults_only or j.get("events") or j.get("retransmits")
    ]
    shown = selected if limit is None else selected[:limit]
    lines: List[str] = []
    for journey in shown:
        header = f"journey {journey['digest']}  {journey['summary']}"
        retransmits = journey.get("retransmits", 0)
        if retransmits:
            header += f"  ({retransmits} retransmit{'s' if retransmits != 1 else ''})"
        lines.append(header)
        entries = [
            (
                hop["time_ns"],
                0,
                f"{format_time(hop['time_ns']):>14}  {hop['node']:<10} "
                f"{hop['direction']:<5}",
            )
            for hop in journey.get("hops", [])
        ]
        entries.extend(
            (
                event["time_ns"],
                1,
                f"{format_time(event['time_ns']):>14}  {event['node']:<10} "
                f"{event['kind']}: {event['detail']}",
            )
            for event in journey.get("events", [])
        )
        lines.extend(
            text for _, _, text in sorted(entries, key=lambda e: (e[0], e[1], e[2]))
        )
    if limit is not None and len(selected) > limit:
        lines.append(f"... {len(selected) - limit} more journeys not shown")
    return "\n".join(lines)
