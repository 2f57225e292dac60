"""Append-only campaign journal: crash-safe durability for sweeps.

A campaign journal is a JSONL file.  Each line is one record — campaign
header, result row, resume marker or end marker — serialised as canonical
JSON carrying its own CRC-32 (computed over the record *without* the
``crc`` field).  Rows are appended and fsync'd **as they land**, so any
interruption of the parent — SIGINT, SIGTERM, OOM kill, ``kill -9`` —
leaves an on-disk state from which :func:`repro.sweep.run_sweep` can
resume (``resume=True`` / ``repro sweep --resume PATH``).

Replay is torn-tail tolerant: a final line that was cut mid-write (no
newline, truncated JSON, CRC mismatch) is discarded and the journal is
still usable — exactly the state a ``kill -9`` produces.  Corruption
*before* the tail (a CRC mismatch followed by further valid records) is
not survivable silently and raises :class:`JournalError`: a journal that
lies about completed rows would break the byte-identity guarantee.

Record types::

    {"type": "campaign", "spec_name": ..., "base_seed": ..., "tasks": N}
    {"type": "row", "fingerprint": ..., **SweepResult.to_record()}
    {"type": "resume", "resumed": N}      # appended on every resume
    {"type": "end", "aborted": ..., "interrupted": ..., "rows": N}

Each ``row`` record carries the cell's :func:`~repro.sweep.spec.
task_fingerprint`; on resume a journaled row is replayed only when the
current task at that index still has the same fingerprint, so editing a
scenario (or the grid shape) re-executes exactly the changed cells.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple

from .spec import SweepResult, SweepError

#: Journal format version, bumped on incompatible record changes.
JOURNAL_VERSION = 1


class JournalError(SweepError):
    """The journal file is corrupt or belongs to a different campaign."""


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: Dict[str, Any]) -> str:
    """One journal line: the record plus its CRC-32, canonical JSON."""
    body = dict(record)
    body.pop("crc", None)
    crc = zlib.crc32(_canonical(body).encode("utf-8"))
    body["crc"] = crc
    return _canonical(body)


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and CRC-verify one journal line.

    Raises :class:`JournalError` on any mismatch — the caller decides
    whether the failure is a tolerable torn tail or fatal corruption.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise JournalError(f"undecodable journal line: {exc}") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise JournalError("journal line is not a CRC-carrying record")
    body = dict(record)
    expected = body.pop("crc")
    actual = zlib.crc32(_canonical(body).encode("utf-8"))
    if actual != expected:
        raise JournalError(
            f"journal CRC mismatch (stored {expected}, computed {actual})"
        )
    return body


@dataclass
class JournalState:
    """Everything replay recovers from a journal file."""

    #: the first ``campaign`` header record, or None for an empty file.
    meta: Optional[Dict[str, Any]] = None
    #: latest journaled row per task index, with its fingerprint.
    rows: Dict[int, Tuple[str, SweepResult]] = field(default_factory=dict)
    #: every journaled row in file order, with its fingerprint: what the
    #: result cache serves, where resume needs only ``rows``.
    history: List[Tuple[str, SweepResult]] = field(default_factory=list)
    #: an ``end`` record was seen (the previous run exited cleanly, even
    #: if aborted); its payload is kept for tooling.
    end: Optional[Dict[str, Any]] = None
    #: the final line was torn (cut mid-write) and discarded on replay.
    torn_tail: bool = False
    #: number of resume markers — how many sessions this journal spans.
    resumes: int = 0


def read_journal(path: str) -> JournalState:
    """Replay a journal into a :class:`JournalState`.

    Tolerates a torn final line (the ``kill -9`` signature); raises
    :class:`JournalError` for corruption anywhere else.
    """
    state = JournalState()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines: List[str] = handle.read().split("\n")
    # A well-formed journal ends with "\n": the split leaves one trailing
    # empty string.  Anything after the last newline is a torn tail.
    records: List[Dict[str, Any]] = []
    for position, line in enumerate(lines):
        if line == "":
            continue
        try:
            records.append(decode_record(line))
        except JournalError:
            remainder = [l for l in lines[position + 1:] if l != ""]
            if remainder:
                raise JournalError(
                    f"{path}: corrupt journal record at line {position + 1} "
                    f"(not a torn tail: {len(remainder)} valid-looking "
                    f"line(s) follow)"
                )
            state.torn_tail = True
            break
    for record in records:
        kind = record.get("type")
        if kind == "campaign":
            if state.meta is None:
                state.meta = record
        elif kind == "row":
            row = SweepResult.from_record(record)
            entry = (str(record.get("fingerprint", "")), row)
            state.rows[row.index] = entry
            state.history.append(entry)
        elif kind == "resume":
            state.resumes += 1
            state.end = None  # the campaign is open again
        elif kind == "end":
            state.end = record
        else:
            raise JournalError(f"{path}: unknown journal record type {kind!r}")
    return state


class JournalWriter:
    """Append-only, fsync-per-record journal writer.

    Every :meth:`write` flushes the line to the OS *and* fsyncs the file
    descriptor before returning — a journaled row survives ``kill -9`` of
    the parent the instant the call returns.  That is the durability
    contract resume relies on; at sweep scale (seconds per row) the fsync
    cost is noise.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if append and os.path.exists(path):
            self._truncate_torn_tail(path)
        self._handle: Optional[IO[str]] = open(
            path, "a" if append else "w", encoding="utf-8"
        )

    @staticmethod
    def _truncate_torn_tail(path: str) -> None:
        """Drop a torn final write before appending, so the journal stays
        replayable forever — gluing new records after a partial line (or
        newline-terminating it) would leave a permanently corrupt record
        in the middle of the file."""
        with open(path, "rb") as probe:
            content = probe.read()
        keep = len(content)
        while keep > 0:
            line_start = content.rfind(b"\n", 0, keep - 1) + 1
            line = content[line_start:keep].rstrip(b"\n")
            if line:
                try:
                    decode_record(line.decode("utf-8", errors="replace"))
                    break  # the suffix ends in a valid record: keep it all
                except JournalError:
                    pass
            keep = line_start
        if keep < len(content):
            with open(path, "r+b") as handle:
                handle.truncate(keep)

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError("journal writer is closed")
        self._handle.write(encode_record(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    # Record helpers
    # ------------------------------------------------------------------

    def write_campaign(
        self, spec_name: str, base_seed: int, task_count: int
    ) -> None:
        self.write(
            {
                "type": "campaign",
                "version": JOURNAL_VERSION,
                "spec_name": spec_name,
                "base_seed": base_seed,
                "tasks": task_count,
            }
        )

    def write_resume(self, resumed: int) -> None:
        self.write({"type": "resume", "resumed": resumed})

    def write_row(self, row: SweepResult, fingerprint: str) -> None:
        record = row.to_record()
        record["type"] = "row"
        record["fingerprint"] = fingerprint
        self.write(record)

    def write_end(self, aborted: bool, interrupted: bool, rows: int) -> None:
        self.write(
            {
                "type": "end",
                "aborted": aborted,
                "interrupted": interrupted,
                "rows": rows,
            }
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "decode_record",
    "encode_record",
    "read_journal",
]
