"""Event queue for the discrete-event simulator.

The queue is a binary heap keyed by ``(time, sequence)`` where *sequence* is
a global insertion counter.  Ties at the same virtual instant therefore fire
in the order they were scheduled, which makes every run deterministic without
any reliance on hash ordering or object identity.  Heap entries are
``(when, seq, handle)`` tuples rather than the handles themselves, so sift
comparisons stop at the integer fields and run at C speed — sequence
numbers are unique, so the handle element is never compared (docs/PERF.md).

Events are cancellable: cancellation marks the handle and the event loop
skips dead entries lazily (the standard heapq idiom), so cancellation is
O(1) and pop stays O(log n) amortised.  Long runs that cancel timers
constantly — a TCP transfer re-arms its RTO on every ACK — would otherwise
accumulate dead entries until they happen to reach the heap top, so the
queue **compacts** itself once the dead outnumber the live beyond a fixed
floor (:data:`COMPACT_MIN_DEAD`): live entries are copied out and
re-heapified, an O(n) operation amortised over the >n cancellations that
triggered it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SchedulingError

#: Type of an event callback.  Callbacks take no arguments; bind state with
#: closures or ``functools.partial`` at scheduling time.
Callback = Callable[[], None]

#: Compaction floor: never compact below this many dead entries, so small
#: queues keep the cheap lazy-discard behaviour.  Above it, a heap that is
#: more than half dead is rebuilt from its live entries.
COMPACT_MIN_DEAD = 1024

#: Freelist ceiling for pooled handles: bounds the memory a burst pins.
POOL_MAX_FREE = 4096


class EventHandle:
    """A scheduled event, returned so the caller may cancel or inspect it."""

    __slots__ = ("when", "seq", "callback", "label", "cancelled", "queue", "pooled")

    def __init__(self, when: int, seq: int, callback: Callback, label: str) -> None:
        self.when = when
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.label = label
        self.cancelled = False
        #: the owning queue, while the entry sits in its heap; the queue
        #: clears it on pop so post-fire cancels cannot skew accounting.
        self.queue: Optional["EventQueue"] = None
        #: pooled handles are recycled into the queue's freelist after they
        #: fire (see EventQueue.push) — schedulers opting in must drop the
        #: returned handle immediately and never cancel it.
        self.pooled = False

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

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.when}, seq={self.seq}, {state}, {self.label!r})"


class EventQueue:
    """Deterministic priority queue of :class:`EventHandle` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, EventHandle]] = []
        self._counter = itertools.count()
        self._live = 0
        #: recycled pooled handles awaiting reuse (see :meth:`push`).
        self._freelist: List[EventHandle] = []

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
        self, when: int, callback: Callback, label: str = "", pooled: bool = False
    ) -> EventHandle:
        """Schedule *callback* at absolute time *when* and return its handle.

        With ``pooled=True`` the handle comes from (and, after firing,
        returns to) a freelist, so steady-state per-frame scheduling
        allocates nothing.  Pooled events are strictly fire-and-forget:
        the caller must not retain or cancel the returned handle, because
        the same object will be handed out again for a later event.
        """
        if callback is None:
            raise SchedulingError("cannot schedule a None callback")
        when = int(when)
        seq = next(self._counter)
        if pooled and self._freelist:
            handle = self._freelist.pop()
            handle.when = when
            handle.seq = seq
            handle.callback = callback
            handle.label = label
            handle.cancelled = False
        else:
            handle = EventHandle(when, seq, callback, label)
            handle.pooled = pooled
        handle.queue = self
        heapq.heappush(self._heap, (when, seq, handle))
        self._live += 1
        return handle

    def recycle(self, handle: EventHandle) -> None:
        """Return a fired pooled handle to the freelist.

        Called by :meth:`Simulator.step` after the callback completed (the
        drain loop inlines the same checks);
        anything still referenced elsewhere (cancelled, or somehow back in
        a heap) is left for the garbage collector instead.
        """
        if handle.cancelled or handle.queue is not None:
            return
        handle.callback = None
        if len(self._freelist) < POOL_MAX_FREE:
            self._freelist.append(handle)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel *handle*; the heap entry is discarded lazily on pop."""
        handle.cancel()

    def _on_cancel(self) -> None:
        """Bookkeeping for a cancellation (also via ``handle.cancel()``)."""
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from its live entries, in place.

        ``heapify`` over the ``(when, seq, handle)`` tuples uses the same
        ordering as the incremental pushes, so firing order — including
        same-instant insertion-order ties — is unchanged.  The list object
        must survive: the simulator's drain loop holds it in a local while
        the callback that triggered this compaction is still running.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or None if empty."""
        self._discard_dead()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> EventHandle:
        """Remove and return the next live event.

        Raises :class:`SchedulingError` when no live event remains.
        """
        self._discard_dead()
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        handle = heapq.heappop(self._heap)[2]
        handle.queue = None
        self._live -= 1
        return handle

    def clear(self) -> None:
        """Drop every pending event (used when tearing a simulator down)."""
        for _, _, handle in self._heap:
            handle.queue = None  # detach first: no per-handle accounting
            handle.cancel()
        self._heap.clear()
        self._live = 0

    def _discard_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2].queue = None

    def snapshot(self) -> List[Any]:
        """Return (time, label) for each live event, soonest first.

        Intended for debugging and tests; the cost is O(n log n).
        """
        live = [handle for _, _, handle in self._heap if handle.pending]
        live.sort()
        return [(h.when, h.label) for h in live]
