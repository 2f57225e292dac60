"""Units of virtual time for the discrete-event simulator.

Time is kept as an integer count of **nanoseconds** since simulation start.
Integers keep the simulation exactly reproducible: there is no floating-point
accumulation error, and two runs with the same inputs produce bit-identical
schedules.  Helper constructors convert from the human units used
throughout the paper (milliseconds for protocol timers, seconds for run
caps, 10 ms "jiffies" for the Linux timer granularity the DELAY primitive
inherits).
"""

from __future__ import annotations

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

