"""Incremental result cache: a directory of campaign journals.

Re-running a 10k-cell grid after editing one scenario should re-execute
one cell, not 10k.  :class:`ResultCache` serves each completed ``OK`` row
under its cell's :func:`~repro.sweep.spec.task_fingerprint` — the SHA-256
of the cell's canonical JSON (task fn name, knobs with the script text
byte for byte, seed, cell identity) — so a warm re-run serves every clean
cell from disk and executes exactly the dirty ones.  Cached rows re-enter
the deterministic task-order merge untouched: a warm outcome's
``canonical_bytes()`` is byte-identical to a cold full run.

The directory holds campaign journals (:mod:`repro.sweep.journal`), the
one on-disk row format: every ``*.journal`` in it — the cache's own, or
a link to a campaign's ``--journal`` — is replayed once, when the cache
is opened.  Policy:

* only ``OK`` rows are served.  ``FAILED`` rows may be environmental
  (dead worker, resource exhaustion) and ``TIMEOUT`` rows are a property
  of the machine's wall clock — both must re-execute on the next run;
* a journal serves every ``OK`` row it holds, keyed by its fingerprint
  (resume replays only the last row per task index; the cache has no
  such rule), and a torn tail loses only the torn row; a journal that
  does not replay (unreadable, a dangling link, corrupt mid-file) serves
  nothing, so its cells are misses.  Nothing in DIR is ever deleted;
* rows this process adds go to its own journal, created on the first
  :meth:`ResultCache.put` under a unique name, so concurrent campaigns
  never share a file;
* the store is content-addressed and append-only by nature — no
  invalidation protocol.  Editing a script — reformatting included,
  since FLAG_ERROR reports script lines — changes the fingerprint, which
  is simply a different key.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os
import tempfile
from typing import Dict, Optional

from .journal import JournalWriter, read_journal
from .spec import SweepError, SweepResult, SweepTask


class ResultCache:
    """A directory of campaign journals, read once into
    ``{fingerprint: row}``."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._rows: Dict[str, SweepResult] = {}
        self._writer: Optional[JournalWriter] = None
        for path in sorted(glob.glob(os.path.join(glob.escape(self.root), "*.journal"))):
            try:
                state = read_journal(path)
            except (OSError, SweepError):
                continue  # JournalError is a SweepError: corrupt mid-file
            for fingerprint, row in state.history:
                if row.ok:
                    self._rows[fingerprint] = row

    def get(self, task: SweepTask, fingerprint: str) -> Optional[SweepResult]:
        """A copy of the stored row for *task*, or ``None``.

        A hit is returned with ``cached=True`` and the task's own
        ``index``/``name``/``seed`` (they are part of the key, so they
        always match — this is a belt-and-braces normalisation).
        """
        row = self._rows.get(fingerprint)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return dataclasses.replace(
            row, index=task.index, name=task.name, seed=task.seed, cached=True
        )

    def put(self, task: SweepTask, row: SweepResult, fingerprint: str) -> bool:
        """Append *row* to this cache's journal under *fingerprint*;
        returns whether it was cached (only ``OK`` rows are)."""
        if not row.ok:
            return False
        if self._writer is None:
            descriptor, path = tempfile.mkstemp(dir=self.root, suffix=".journal")
            os.close(descriptor)
            self._writer = JournalWriter(path)
        self._writer.write_row(row, fingerprint)
        self._rows[fingerprint] = row
        return True

    def link(self, journal: str) -> None:
        """Serve *journal*'s rows to later runs: a link in the directory,
        named by a hash of the journal's absolute path, so a resume finds
        its link already there.  A journal read from here gets none."""
        path = os.path.abspath(journal)
        if os.path.dirname(path) == self.root and path.endswith(".journal"):
            return
        name = hashlib.sha256(path.encode("utf-8")).hexdigest()[:16] + ".journal"
        try:
            os.symlink(path, os.path.join(self.root, name))
        except FileExistsError:
            pass

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()


__all__ = ["ResultCache"]
