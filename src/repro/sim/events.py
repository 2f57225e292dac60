"""Event queue for the discrete-event simulator.

The queue is a binary heap keyed by ``(time, sequence)`` where *sequence* is
a global insertion counter.  Ties at the same virtual instant therefore fire
in the order they were scheduled, which makes every run deterministic without
any reliance on hash ordering or object identity.  Every heap entry is one
tuple shape, ``(when, seq, arm, callback, args, label)``, and firing one is
``callback(*args)``.  Sift comparisons stop at the two integers and run at C
speed: sequence numbers are unique, so *arm* and what follows it are never
compared (docs/PERF.md).

*arm* is ``None`` for a fire-and-forget event (:meth:`Simulator.at` /
:meth:`Simulator.after`): nothing can cancel it.  A :class:`Timer` entry's
arm is a one-slot list holding the timer.  Stopping the timer, or re-arming
it to an earlier deadline, empties the list (:meth:`EventQueue.kill`), which
kills the entry and drops its only reference to the timer, and through it to
the timer's owner.

**Stamps.**  A timer re-armed to a deadline no earlier than its pending
entry keeps that entry: it records a *stamp* ``(when, seq)`` instead
(``Timer._when``, ``Timer._seq``), taking the sequence number from the
queue's counter exactly as a push would.  The entry is then *stale*: its
``seq`` is not its timer's stamp, and its key is no later than the stamp's.
A stale entry that reaches the heap top is re-keyed to its stamp in place
(:func:`_rekey`).  Every other key in the heap is no later than the one its
event fires at, so a top that is live and not stale is the next event, and
every event fires at the ``(when, seq)`` a kill-and-push timer would have
given it.  A TCP or RLL retransmission timer restarted on every ACK thus
holds one heap entry, not one per restart.

Dead entries are skipped lazily when they reach the heap top (the standard
heapq idiom), so a kill is O(1) and pop stays O(log n) amortised.  A timer
stopped and started over and over would still leave dead entries until they
happen to reach the top, so the queue **compacts** itself once the dead
outnumber the live and exceed a small floor (:data:`COMPACT_MIN_DEAD`): live
entries, stale ones as they are, are copied out and re-heapified, an O(n)
operation amortised over the more than n/2 kills that triggered it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional

from ..errors import SchedulingError

#: Type of an event callback: called with the ``args`` tuple it was scheduled
#: with (bind state with a bound method and its arguments).
Callback = Callable[..., None]

#: Compaction floor: never compact below this many dead entries, so tiny
#: queues keep the cheap lazy-discard behaviour.  Above it, a heap whose dead
#: entries outnumber its live ones is rebuilt from the live.
COMPACT_MIN_DEAD = 32


def _is_live(entry: tuple) -> bool:
    return entry[2] is None or entry[2][0] is not None


def _rekey(heap: List[tuple], entry: tuple) -> None:
    """Replace the stale heap top *entry* with its timer's stamp."""
    timer = entry[2][0]
    timer._due = timer._when
    heapq.heapreplace(heap, (timer._when, timer._seq) + entry[2:])


class EventQueue:
    """Deterministic priority queue of events (see the module docstring)."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap length, live plus not-yet-discarded dead entries.

        Exposed for diagnostics and the compaction tests; ``len(queue)``
        remains the live count.
        """
        return len(self._heap)

    def push(
        self, when: int, arm: Optional[list], callback: Callback, args: tuple, label: str
    ) -> int:
        """Schedule ``callback(*args)`` at absolute time *when*, as *label*;
        return the entry's sequence number.  *when* is an ``int``: the
        scheduling calls check it, and :meth:`Simulator.defer` adds validated
        ``CostModel`` sums."""
        if callback is None:
            raise SchedulingError("cannot schedule a None callback")
        self._live += 1
        seq = next(self._counter)
        heapq.heappush(self._heap, (when, seq, arm, callback, args, label))
        return seq

    def kill(self, arm: list) -> None:
        """Empty a live *arm*: its entry is dead and never fires."""
        arm[0] = None
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > COMPACT_MIN_DEAD and dead > self._live:
            self._compact()

    def discard(self, owners: Iterable[object]) -> None:
        """Drop every fire-and-forget entry whose callback is a bound
        method of one of *owners* (a rebooting host's deferrals from its
        last life; :meth:`repro.stack.node.Host.reboot` states which).  A
        closure or a ``partial`` has no owner and is never dropped."""
        owned = {id(owner) for owner in owners}
        heap = self._heap
        kept = [
            e for e in heap
            if e[2] is not None or id(getattr(e[3], "__self__", None)) not in owned
        ]
        self._live -= len(heap) - len(kept)
        self._rebuild(kept)

    def _compact(self) -> None:
        self._rebuild([e for e in self._heap if _is_live(e)])

    def _rebuild(self, entries: List[tuple]) -> None:
        """Make *entries* the heap, in place.

        ``heapify`` over the entry tuples uses the same ordering as the
        incremental pushes, and a stale entry keeps its key (no later than
        its stamp's), so firing order — including same-instant
        insertion-order ties — is unchanged.  The list object must
        survive: the simulator's drain loop holds it in a local while the
        callback that triggered this rebuild is still running.
        """
        self._heap[:] = entries
        heapq.heapify(self._heap)

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or None if empty."""
        self._settle()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple:
        """Remove and return the next live entry; fire it with
        ``entry[3](*entry[4])``.  Raises :class:`SchedulingError` when no
        live event remains."""
        self._settle()
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        self._live -= 1
        return heapq.heappop(self._heap)

    def _settle(self) -> None:
        """Discard dead entries and re-key stale ones at the heap top until
        the top is the next event to fire (or the heap is empty)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            arm = entry[2]
            if arm is None:
                return
            timer = arm[0]
            if timer is None:
                heapq.heappop(heap)
            elif timer._seq != entry[1]:
                _rekey(heap, entry)
            else:
                return

    def snapshot(self) -> List[Any]:
        """Return (time, label) for each live event, soonest first; a
        timer's event at its stamp.

        Intended for debugging and tests; the cost is O(n log n).
        """
        live = [
            (e[0], e[1], e[5]) if e[2] is None else (e[2][0]._when, e[2][0]._seq, e[5])
            for e in self._heap
            if _is_live(e)
        ]
        return [(when, label) for when, _, label in sorted(live)]
