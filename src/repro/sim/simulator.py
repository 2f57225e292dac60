"""The discrete-event simulator facade.

:class:`Simulator` owns the clock, the event queue and the random registry,
and exposes the scheduling API that every other subsystem uses:

* :meth:`Simulator.at` / :meth:`Simulator.after` — schedule one-shot events;
* :meth:`Simulator.timer` — a re-armable one-shot :class:`Timer`;
* :meth:`Simulator.run` / :meth:`run_until` / :meth:`step` — drive the loop
  (:meth:`Simulator.drain` is the one loop behind all but ``step``).

The simulator is single-threaded by construction.  "Concurrency" between
hosts is purely virtual: each scheduled callback runs to completion at one
instant of virtual time, exactly as interrupt handlers do on a real testbed
node, and the interleaving across nodes is governed only by event timestamps.
"""

from __future__ import annotations

import enum
import heapq
from typing import Callable, List, Optional

from ..errors import SchedulingError, SimulationError
from .clock import Clock, format_time
from .events import Callback, EventHandle, EventQueue
from .random import RandomRegistry


class DrainEnd(enum.Enum):
    """Why :meth:`Simulator.drain` returned."""

    DRAINED = "drained"  # no live event is left
    DEADLINE = "deadline"  # the next event lies past the deadline
    BUDGET = "budget"  # the event budget ran out with an event still due
    STOPPED = "stopped"  # stop() ended the loop


class Timer:
    """A re-armable one-shot timer, made by :meth:`Simulator.timer`.

    :meth:`start` arms it, or re-arms it and drops the pending firing;
    :meth:`stop` disarms it and is safe to repeat; :attr:`armed` says
    whether a firing is pending.  Each arm is one :meth:`Simulator.after`,
    and a firing disarms the timer before ``callback(*args)`` runs, so the
    callback may start it again.
    """

    __slots__ = ("_sim", "_callback", "_label", "_args", "_event")

    def __init__(self, sim: "Simulator", callback: Callback, label: str, args: tuple) -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._args = args
        self._event: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        return self._event is not None

    def start(self, delay: int) -> None:
        """Fire *delay* nanoseconds from now, and not at any earlier deadline."""
        if self._event is not None:
            self._event.cancel()
        self._event = self._sim.after(delay, self._fire, self._label)

    def stop(self) -> None:
        """Drop the pending firing, if any."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args)


class Simulator:
    """Deterministic discrete-event simulation kernel."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.random = RandomRegistry(seed)
        self.events_processed = 0
        self._running = False
        self._stop_requested = False
        self._trace_hooks: List[Callable[[EventHandle], None]] = []

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.clock._now

    # -- scheduling ---------------------------------------------------------

    def at(
        self, when: int, callback: Callback, label: str = "", args: Optional[tuple] = None
    ) -> Optional[EventHandle]:
        """Schedule *callback* at absolute virtual time *when*.

        Returns a cancellable handle — unless *args* is given (a tuple,
        possibly empty), which makes the event fire-and-forget, as every
        per-frame deferral is: ``callback(*args)`` runs at *when*, no
        handle is built and the call returns ``None``, so there is nothing
        to retain or cancel.
        """
        if when < self.clock.now:
            raise SchedulingError(
                f"cannot schedule into the past: now={self.clock.now}, when={when}"
            )
        return self.queue.push(when, callback, label, args)

    def after(
        self, delay: int, callback: Callback, label: str = "", args: Optional[tuple] = None
    ) -> Optional[EventHandle]:
        """Schedule *callback* *delay* nanoseconds from now (see :meth:`at`)."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.queue.push(self.clock._now + delay, callback, label, args)

    def timer(self, callback: Callback, label: str, *args) -> Timer:
        """A disarmed :class:`Timer` that runs ``callback(*args)`` as *label*."""
        return Timer(self, callback, label, args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled one-shot event."""
        self.queue.cancel(handle)

    # -- observation --------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[EventHandle], None]) -> None:
        """Register a hook invoked before each event fires (for debugging)."""
        self._trace_hooks.append(hook)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty.

        The readable reference for :meth:`drain`: ``queue.pop()`` hands back
        a handle for either entry shape.
        """
        if not self.queue:
            return False
        handle = self.queue.pop()
        self.clock.advance_to(handle.when)
        callback = handle.callback
        handle.callback = None  # the event is consumed; free the closure
        for hook in self._trace_hooks:
            hook(handle)
        self.events_processed += 1
        if callback is not None:
            callback()
        return True

    def drain(self, deadline: Optional[int] = None, max_events: int = 50_000_000) -> DrainEnd:
        """The event loop every run method shares; returns why it ended.

        Fires events in ``(time, sequence)`` order while the next one is due
        at or before *deadline* (``None``: no deadline) and fewer than
        *max_events* have fired, and leaves the clock at the last event
        fired.  :meth:`stop` from a callback ends the loop after that
        event.  One event here is exactly one :meth:`step`, with the
        queue's dead-entry discard and pop inlined on local bindings; a
        fire-and-forget entry is fired straight from its tuple, and gets a
        detached handle only while a trace hook is registered to look at it.
        """
        self._enter_run()
        queue, clock, hooks = self.queue, self.clock, self._trace_hooks
        heap, heappop = queue._heap, heapq.heappop
        limit = float("inf") if deadline is None else deadline
        remaining = max_events
        try:
            while not self._stop_requested:
                while heap and heap[0][2] is not None and heap[0][2].cancelled:
                    heappop(heap)[2].queue = None
                if not heap:
                    return DrainEnd.DRAINED
                entry = heap[0]
                when, handle = entry[0], entry[2]
                if when > limit:
                    return DrainEnd.DEADLINE
                if remaining <= 0:
                    return DrainEnd.BUDGET
                remaining -= 1
                heappop(heap)
                queue._live -= 1
                if when < clock._now:
                    clock.advance_to(when)  # raises: the clock never runs backwards
                clock._now = when
                if handle is None:
                    if hooks:
                        handle = EventHandle(when, entry[1], None, entry[5])
                        for hook in hooks:
                            hook(handle)
                    self.events_processed += 1
                    entry[3](*entry[4])
                    continue
                handle.queue = None
                callback = handle.callback
                handle.callback = None  # the event is consumed; free the closure
                for hook in hooks:
                    hook(handle)
                self.events_processed += 1
                if callback is not None:
                    callback()
            return DrainEnd.STOPPED
        finally:
            self._exit_run()

    def _event_cap_exceeded(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"event cap of {max_events} exceeded at t={format_time(self.clock.now)}"
        )

    def run(self, max_events: int = 50_000_000) -> None:
        """Run until the queue drains or *max_events* have been processed.

        The event cap guards against accidental infinite self-scheduling
        loops; hitting it raises :class:`SimulationError` rather than hanging.
        """
        if self.drain(None, max_events) is DrainEnd.BUDGET:
            raise self._event_cap_exceeded(max_events)

    def run_until(self, deadline: int, max_events: int = 50_000_000) -> None:
        """Run events with timestamps <= *deadline*, then set clock = deadline."""
        if deadline < self.clock.now:
            raise SchedulingError(
                f"deadline {deadline} is before current time {self.clock.now}"
            )
        ended = self.drain(deadline, max_events)
        if ended is DrainEnd.BUDGET:
            raise self._event_cap_exceeded(max_events)
        if ended is not DrainEnd.STOPPED:
            self.clock.advance_to(deadline)

    def run_for(self, duration: int, max_events: int = 50_000_000) -> None:
        """Convenience wrapper: run for *duration* nanoseconds of virtual time."""
        self.run_until(self.clock.now + duration, max_events)

    def stop(self) -> None:
        """Request the current :meth:`run`/:meth:`run_until` loop to exit.

        Pending events stay queued; a subsequent run continues from them.
        """
        self._stop_requested = True

    def _enter_run(self) -> None:
        if self._running:
            raise SimulationError("simulator run loop is not reentrant")
        self._running = True
        self._stop_requested = False

    def _exit_run(self) -> None:
        self._running = False
        self._stop_requested = False

    def __repr__(self) -> str:
        return (
            f"Simulator(t={format_time(self.clock.now)}, "
            f"pending={len(self.queue)}, processed={self.events_processed})"
        )
