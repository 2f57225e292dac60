"""Event queue for the discrete-event simulator.

The queue is a binary heap keyed by ``(time, sequence)`` where *sequence* is
a global insertion counter.  Ties at the same virtual instant therefore fire
in the order they were scheduled, which makes every run deterministic without
any reliance on hash ordering or object identity.  Heap entries are tuples
in one of two shapes:

* ``(when, seq, handle)`` — a **cancellable** event; the caller holds the
  :class:`EventHandle`;
* ``(when, seq, None, callback, args, label)`` — a **fire-and-forget** event
  (scheduled with ``args=``): it carries its arguments and no handle exists,
  so none can be retained or cancelled by mistake, and scheduling one is a
  counter tick and a ``heappush``.

Sift comparisons stop at the integer fields and run at C speed — sequence
numbers are unique, so the third element (a handle, or ``None``) and
everything after it is never compared, and the two shapes mix freely
(docs/PERF.md).

Cancellation marks the handle and the event loop skips dead entries lazily
(the standard heapq idiom), so cancellation is O(1) and pop stays O(log n)
amortised.  Long runs that cancel timers constantly — a TCP transfer re-arms
its RTO on every ACK — would otherwise accumulate dead entries until they
happen to reach the heap top, so the queue **compacts** itself once the dead
outnumber the live beyond a fixed floor (:data:`COMPACT_MIN_DEAD`): live
entries are copied out and re-heapified, an O(n) operation amortised over
the >n cancellations that triggered it.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, List, Optional

from ..errors import SchedulingError

#: Type of an event callback: called with the ``args`` tuple it was scheduled
#: with, or with nothing (bind state with a bound method or a closure).
Callback = Callable[..., None]

#: Compaction floor: never compact below this many dead entries, so small
#: queues keep the cheap lazy-discard behaviour.  Above it, a heap that is
#: more than half dead is rebuilt from its live entries.
COMPACT_MIN_DEAD = 1024


class EventHandle:
    """A scheduled event, returned so the caller may cancel or inspect it."""

    __slots__ = ("when", "seq", "callback", "label", "cancelled", "queue")

    def __init__(self, when: int, seq: int, callback: Optional[Callback], label: str) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: the owning queue, while the entry sits in its heap; the queue
        #: clears it on pop so post-fire cancels cannot skew accounting.
        #: A handle synthesised for a fire-and-forget entry (``pop``, trace
        #: hooks) is *detached*: it never had a queue.
        self.queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once."""
        if self.cancelled or self.callback is None:
            return  # already cancelled, or already fired: nothing to undo
        self.cancelled = True
        self.callback = None  # break reference cycles promptly
        if self.queue is not None:
            self.queue._on_cancel()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.when}, seq={self.seq}, {state}, {self.label!r})"


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
        self, when: int, callback: Callback, label: str = "", args: Optional[tuple] = None
    ) -> Optional[EventHandle]:
        """Schedule *callback* at absolute time *when* and return its handle.

        With *args* (a tuple, possibly empty) the event is fire-and-forget:
        ``callback(*args)`` runs at *when*, no handle object is built and
        ``None`` is returned — a per-frame deferral allocates one tuple and
        nothing that could be retained or cancelled.
        """
        if callback is None:
            raise SchedulingError("cannot schedule a None callback")
        when = int(when)
        seq = next(self._counter)
        self._live += 1
        if args is not None:
            heapq.heappush(self._heap, (when, seq, None, callback, args, label))
            return None
        handle = EventHandle(when, seq, callback, label)
        handle.queue = self
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel *handle*; the heap entry is discarded lazily on pop."""
        if handle is None:
            raise SchedulingError(
                "cannot cancel None: a fire-and-forget event never hands out a handle"
            )
        handle.cancel()

    def _on_cancel(self) -> None:
        """Bookkeeping for a cancellation (also via ``handle.cancel()``)."""
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from its live entries, in place.

        ``heapify`` over the entry tuples uses the same ordering as the
        incremental pushes, so firing order — including same-instant
        insertion-order ties — is unchanged.  The list object must
        survive: the simulator's drain loop holds it in a local while the
        callback that triggered this compaction is still running.
        """
        self._heap[:] = [e for e in self._heap if e[2] is None or not e[2].cancelled]
        heapq.heapify(self._heap)

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or None if empty."""
        self._discard_dead()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> EventHandle:
        """Remove and return the next live event.

        A fire-and-forget entry comes back as a freshly built *detached*
        handle whose callback has the arguments bound, so callers see one
        shape.  Raises :class:`SchedulingError` when no live event remains.
        """
        self._discard_dead()
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        entry = heapq.heappop(self._heap)
        self._live -= 1
        handle = entry[2]
        if handle is None:
            when, seq, _, callback, args, label = entry
            return EventHandle(when, seq, partial(callback, *args), label)
        handle.queue = None
        return handle

    def clear(self) -> None:
        """Drop every pending event (used when tearing a simulator down)."""
        for entry in self._heap:
            handle = entry[2]
            if handle is not None:
                handle.queue = None  # detach first: no per-handle accounting
                handle.cancel()
        self._heap.clear()
        self._live = 0

    def _discard_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)[2].queue = None

    def snapshot(self) -> List[Any]:
        """Return (time, label) for each live event, soonest first.

        Intended for debugging and tests; the cost is O(n log n).
        """
        live = sorted(
            (e[0], e[1], e[5] if e[2] is None else e[2].label)
            for e in self._heap
            if e[2] is None or e[2].pending
        )
        return [(when, label) for when, _, label in live]
