"""Deterministic discrete-event simulation kernel.

This package is the substrate replacing the paper's physical testbed: an
integer-nanosecond virtual clock, a deterministic event queue with one
entry shape, re-armable timers, and named seeded random streams.
"""

from .clock import (
    JIFFY_NS,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    format_time,
    ms,
    quantize_to_jiffies,
    seconds,
)
from .events import Callback, EventQueue
from .random import RandomRegistry, RandomStream
from .simulator import DrainEnd, Simulator, Timer

__all__ = [
    "JIFFY_NS",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "Callback",
    "DrainEnd",
    "EventQueue",
    "RandomRegistry",
    "RandomStream",
    "Simulator",
    "Timer",
    "format_time",
    "ms",
    "quantize_to_jiffies",
    "seconds",
]
