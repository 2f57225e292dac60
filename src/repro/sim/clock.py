"""Virtual time for the discrete-event simulator.

Time is kept as an integer count of **nanoseconds** since simulation start.
Integers keep the simulation exactly reproducible: there is no floating-point
accumulation error, and two runs with the same inputs produce bit-identical
schedules.  Helper constructors convert from the human units used
throughout the paper (milliseconds for protocol timers, seconds for run
caps, 10 ms "jiffies" for the Linux timer granularity the DELAY primitive
inherits).
"""

from __future__ import annotations

from ..errors import SimulationError

#: Number of nanoseconds in one microsecond / millisecond / second.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

#: Linux 2.4 software-timer granularity: one jiffy = 10 ms (paper section 5.2).
JIFFY_NS = 10 * NS_PER_MS


def ms(value: float) -> int:
    """Return *value* milliseconds in nanoseconds."""
    return int(round(value * NS_PER_MS))


def seconds(value: float) -> int:
    """Return *value* seconds in nanoseconds."""
    return int(round(value * NS_PER_SEC))


def quantize_to_jiffies(ticks: int) -> int:
    """Round *ticks* up to the next jiffy boundary, minimum one jiffy.

    The paper notes the DELAY primitive cannot be finer than one jiffy
    because it is built on the Linux software-timer facility; we reproduce
    that quantisation here.
    """
    if ticks <= 0:
        return JIFFY_NS
    whole, rem = divmod(ticks, JIFFY_NS)
    return (whole + (1 if rem else 0)) * JIFFY_NS


def format_time(ticks: int) -> str:
    """Render a tick count as a human-readable time for traces and logs."""
    if ticks >= NS_PER_SEC:
        return f"{ticks / NS_PER_SEC:.6f}s"
    if ticks >= NS_PER_MS:
        return f"{ticks / NS_PER_MS:.3f}ms"
    if ticks >= NS_PER_US:
        return f"{ticks / NS_PER_US:.3f}us"
    return f"{ticks}ns"


class Clock:
    """Monotonic virtual clock owned by the simulator.

    Only the event loop advances the clock; everything else reads it.  The
    clock refuses to move backwards, which converts scheduler bugs into loud
    failures instead of silently corrupted orderings.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def advance_to(self, when: int) -> None:
        """Move the clock forward to *when* (idempotent at the same instant)."""
        if when < self._now:
            raise SimulationError(
                f"clock cannot run backwards: at {self._now}, asked for {when}"
            )
        self._now = when

    def __repr__(self) -> str:
        return f"Clock({format_time(self._now)})"
