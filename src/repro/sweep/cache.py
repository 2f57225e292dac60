"""Incremental result cache: content-addressed campaign rows.

Re-running a 10k-cell grid after editing one scenario should re-execute
one cell, not 10k.  :class:`ResultCache` stores each completed ``OK`` row
under its cell's :func:`~repro.sweep.spec.task_fingerprint` — the SHA-256
of the cell's canonical JSON (task fn name, knobs with the script text
byte for byte, seed, cell identity) — so a warm re-run serves every clean
cell from disk and executes exactly the dirty ones.  Cached rows re-enter the deterministic
task-order merge untouched: a warm outcome's ``canonical_bytes()`` is
byte-identical to a cold full run (asserted in
``tests/sweep/test_cache.py``).

Policy:

* only ``OK`` rows are cached.  ``FAILED`` rows may be environmental
  (dead worker, resource exhaustion) and ``TIMEOUT`` rows are a property
  of the machine's wall clock — both must re-execute on the next run;
* entries are CRC-checked journal-style records written atomically
  (temp file + ``os.replace``), so a crash mid-write can never serve a
  torn row; a corrupt entry is treated as a miss and deleted;
* the store is content-addressed and append-only by nature — no
  invalidation protocol.  Editing a script — reformatting included,
  since FLAG_ERROR reports script lines — changes the fingerprint, which
  is simply a different key.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from .journal import JournalError, decode_record, encode_record
from .spec import SweepResult, SweepTask, task_fingerprint


class ResultCache:
    """A directory of content-addressed campaign rows."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _entry_path(self, key: str) -> str:
        # Two-level fan-out keeps directories small at 10k-cell scale.
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(
        self, task: SweepTask, fingerprint: Optional[str] = None
    ) -> Optional[SweepResult]:
        """The cached row for *task*, or ``None``.

        A hit is returned with ``cached=True`` and the task's own
        ``index``/``name``/``seed`` (they are part of the key, so they
        always match — this is a belt-and-braces normalisation).
        """
        key = fingerprint if fingerprint is not None else task_fingerprint(task)
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = decode_record(handle.read().strip())
            row = SweepResult.from_record(record)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (JournalError, OSError):
            # Torn or corrupt entry: drop it and re-execute the cell.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        row.index, row.name, row.seed = task.index, task.name, task.seed
        row.cached = True
        return row

    def put(
        self,
        task: SweepTask,
        row: SweepResult,
        fingerprint: Optional[str] = None,
    ) -> bool:
        """Store *row* under *task*'s fingerprint; returns whether it was
        cached (only ``OK`` rows are)."""
        if row.status != SweepResult.OK:
            return False
        key = fingerprint if fingerprint is not None else task_fingerprint(task)
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = row.to_record()
        record["cached"] = False  # a replayed hit sets its own flag
        descriptor, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(encode_record(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False
        self.stores += 1
        return True


__all__ = ["ResultCache"]
