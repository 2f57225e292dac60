"""The discrete-event simulator facade.

:class:`Simulator` owns the virtual clock (an integer nanosecond count,
:attr:`Simulator.now`), the event queue and the random registry, and
exposes the scheduling API that every other subsystem uses:

* :meth:`Simulator.at` / :meth:`Simulator.after` — schedule one-shot
  fire-and-forget events;
* :meth:`Simulator.defer` — a layer's per-frame hop: the frame goes on
  once the layer's cost has elapsed, at once when the cost is zero;
* :meth:`Simulator.timer` — a re-armable one-shot :class:`Timer`, the one
  event that can be cancelled;
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
from .clock import format_time
from .events import Callback, EventQueue
from .random import RandomRegistry

#: Events one run may fire before :meth:`Simulator.run_until` gives up with
#: a :class:`SimulationError`: a guard against a runaway self-scheduling loop.
MAX_EVENTS = 50_000_000


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
    whether a firing is pending.  Each arm is one heap entry whose arm slot
    is a one-slot list holding the timer (see :mod:`repro.sim.events`), and
    a firing disarms the timer before ``callback(*args)`` runs, so the
    callback may start it again.
    """

    __slots__ = ("_sim", "_callback", "_label", "_args", "_arm")

    def __init__(self, sim: "Simulator", callback: Callback, label: str, args: tuple) -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._args = args
        self._arm: Optional[list] = None

    @property
    def armed(self) -> bool:
        return self._arm is not None

    def start(self, delay: int) -> None:
        """Fire *delay* nanoseconds from now, and not at any earlier deadline."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        queue = self._sim.queue
        if self._arm is not None:
            queue.kill(self._arm)
        arm = self._arm = [self]
        queue.push(self._sim._now + delay, arm, _fire, (arm,), self._label)

    def stop(self) -> None:
        """Drop the pending firing, if any."""
        if self._arm is not None:
            self._sim.queue.kill(self._arm)
            self._arm = None


def _fire(arm: list) -> None:
    """A live :class:`Timer` entry's callback: the entry reaches its timer
    only through *arm*, so killing the arm releases the timer."""
    timer = arm[0]
    timer._arm = None
    timer._callback(*timer._args)


class Simulator:
    """Deterministic discrete-event simulation kernel."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0
        self.queue = EventQueue()
        self.random = RandomRegistry(seed)
        self.events_processed = 0
        self._running = False
        self._stop_requested = False
        self._trace_hooks: List[Callable[[int, int, str], None]] = []

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds; only the event loop moves it."""
        return self._now

    def _advance(self, when: int) -> None:
        """Move the clock to *when*; it refuses to run backwards, which turns
        scheduler bugs into loud failures instead of corrupted orderings."""
        if when < self._now:
            raise SimulationError(f"clock cannot run backwards: at {self._now}, asked for {when}")
        self._now = when

    # -- scheduling ---------------------------------------------------------

    def at(self, when: int, callback: Callback, label: str = "", args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time *when*.

        Fire and forget: nothing is returned, so nothing can be retained
        or cancelled.  A :class:`Timer` is the one cancellable event.
        """
        if when < self._now:
            raise SchedulingError(f"cannot schedule into the past: now={self._now}, when={when}")
        self.queue.push(when, None, callback, args, label)

    def after(self, delay: int, callback: Callback, label: str = "", args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` *delay* nanoseconds from now (see :meth:`at`)."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        self.queue.push(self._now + delay, None, callback, args, label)

    def defer(self, delay: int, callback: Callback, label: str, *args) -> None:
        """The hop every layer charges its host cost through: ``callback(
        *args)`` *delay* ns from now as one event labelled *label*, or at
        once when *delay* is 0.  *delay* is a ``CostModel`` sum, a
        non-negative int by construction, and is not checked here."""
        if delay:
            self.queue.push(self._now + delay, None, callback, args, label)
        else:
            callback(*args)

    def timer(self, callback: Callback, label: str, *args) -> Timer:
        """A disarmed :class:`Timer` that runs ``callback(*args)`` as *label*."""
        return Timer(self, callback, label, args)

    # -- observation --------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[int, int, str], None]) -> None:
        """Register ``hook(when, seq, label)``, called before each event fires."""
        self._trace_hooks.append(hook)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty.

        The readable reference for :meth:`drain`, through the queue's
        public :meth:`~repro.sim.events.EventQueue.pop`.
        """
        if not self.queue:
            return False
        when, seq, _, callback, args, label = self.queue.pop()
        self._advance(when)
        for hook in self._trace_hooks:
            hook(when, seq, label)
        self.events_processed += 1
        callback(*args)
        return True

    def drain(self, deadline: Optional[int] = None, max_events: int = MAX_EVENTS) -> DrainEnd:
        """The event loop every run method shares; returns why it ended.

        Fires events in ``(time, sequence)`` order while the next one is due
        at or before *deadline* (``None``: no deadline) and fewer than
        *max_events* have fired, and leaves the clock at the last event
        fired.  :meth:`stop` from a callback ends the loop after that
        event.  One event here is exactly one :meth:`step`, with the
        queue's dead-entry discard and pop inlined on local bindings, and
        one firing path for every entry: ``entry[3](*entry[4])``.
        """
        self._enter_run()
        queue, hooks = self.queue, self._trace_hooks
        heap, heappop = queue._heap, heapq.heappop
        limit = float("inf") if deadline is None else deadline
        remaining = max_events
        try:
            while not self._stop_requested:
                while heap and heap[0][2] is not None and heap[0][2][0] is None:
                    heappop(heap)  # a stopped or re-armed Timer's dead entry
                if not heap:
                    return DrainEnd.DRAINED
                entry = heap[0]
                when = entry[0]
                if when > limit:
                    return DrainEnd.DEADLINE
                if remaining <= 0:
                    return DrainEnd.BUDGET
                remaining -= 1
                heappop(heap)
                queue._live -= 1
                if when < self._now:
                    self._advance(when)  # raises: the clock never runs backwards
                self._now = when
                if hooks:
                    for hook in hooks:
                        hook(when, entry[1], entry[5])
                self.events_processed += 1
                entry[3](*entry[4])
            return DrainEnd.STOPPED
        finally:
            self._exit_run()

    def _event_cap_exceeded(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"event cap of {max_events} exceeded at t={format_time(self._now)}"
        )

    def run(self) -> None:
        """Run until the queue drains; more than :data:`MAX_EVENTS` events
        raise :class:`SimulationError` rather than hang."""
        if self.drain(None, MAX_EVENTS) is DrainEnd.BUDGET:
            raise self._event_cap_exceeded(MAX_EVENTS)

    def run_until(self, deadline: int) -> None:
        """Run events with timestamps <= *deadline*, then set clock = deadline.

        Firing more than :data:`MAX_EVENTS` events raises
        :class:`SimulationError` rather than hanging.
        """
        if deadline < self._now:
            raise SchedulingError(
                f"deadline {deadline} is before current time {self._now}"
            )
        ended = self.drain(deadline, MAX_EVENTS)
        if ended is DrainEnd.BUDGET:
            raise self._event_cap_exceeded(MAX_EVENTS)
        if ended is not DrainEnd.STOPPED:
            self._now = deadline

    def run_for(self, duration: int) -> None:
        """Convenience wrapper: run for *duration* nanoseconds of virtual time."""
        self.run_until(self._now + duration)

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
            f"Simulator(t={format_time(self._now)}, "
            f"pending={len(self.queue)}, processed={self.events_processed})"
        )
