"""In-simulation packet capture (the testbed's tcpdump).

The paper motivates VirtualWire partly by how tedious it was to collect
tcpdump traces and inspect them manually (§1).  This recorder provides the
"before" workflow — full packet capture with offline filtering — both for
debugging the library itself and so tests can assert on wire-level
behaviour independently of the FAE.

A :class:`TraceRecorder` taps any point that sees raw frames: spliced into
a host chain via :class:`TapLayer`, or subscribed to a NIC.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

from ..net.packet import FrameView
from ..sim import Simulator, format_time
from ..stack.layers import FrameLayer

#: Records kept before a capture saturates; later captures are counted in
#: ``dropped_records`` (a test lowers ``recorder.max_records``).
MAX_RECORDS = 1_000_000


class TraceRecord:
    """One captured frame with its capture context."""

    __slots__ = ("when", "where", "direction", "view")

    def __init__(self, when: int, where: str, direction: str, data: bytes) -> None:
        self.when = when
        self.where = where
        self.direction = direction  # "send" | "recv"
        self.view = FrameView(data)

    @property
    def data(self) -> bytes:
        return self.view.data

    def render(self) -> str:
        """tcpdump-style one-liner."""
        return (
            f"{format_time(self.when):>14} {self.where:<12} "
            f"{self.direction:<4} {self.view.summary()}"
        )

    def __repr__(self) -> str:
        return f"TraceRecord({self.render()})"


class TraceRecorder:
    """Accumulates :class:`TraceRecord` objects from any number of taps."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.max_records = MAX_RECORDS
        self.records: List[TraceRecord] = []
        self.dropped_records = 0

    def capture(self, where: str, direction: str, data: bytes) -> None:
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(TraceRecord(self.sim.now, where, direction, data))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- queries ----------------------------------------------------------

    def select(
        self,
        where: Optional[str] = None,
        direction: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Filter records by capture point, direction and/or a predicate."""
        out = []
        for record in self.records:
            if where is not None and record.where != where:
                continue
            if direction is not None and record.direction != direction:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def render(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """Multi-line text dump of *records* (default: everything)."""
        lines = [r.render() for r in (self.records if records is None else records)]
        if records is None and self.dropped_records:
            # A saturated capture must never read as a complete trace.
            lines.append(
                f"... {self.dropped_records} record"
                f"{'s' if self.dropped_records != 1 else ''} dropped "
                f"(capture saturated at {self.max_records})"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.records.clear()
        self.dropped_records = 0


class TapLayer(FrameLayer):
    """A transparent frame layer feeding a :class:`TraceRecorder`."""

    def __init__(self, recorder: TraceRecorder, where: str) -> None:
        super().__init__(f"tap:{where}")
        self.recorder = recorder
        self.where = where

    def on_send(self, frame_bytes: bytes) -> None:
        self.recorder.capture(self.where, "send", frame_bytes)
        self.pass_down(frame_bytes)

    def on_receive(self, frame_bytes: bytes) -> None:
        self.recorder.capture(self.where, "recv", frame_bytes)
        self.pass_up(frame_bytes)
