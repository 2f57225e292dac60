"""Reliable Link Layer: sliding-window reliability below the engine.

Masks MAC-level bit errors so the only packet losses a protocol under test
ever sees are the ones the fault script injected (paper §3.3).
"""

from .frames import KIND_ACK, KIND_DATA, SEQ_MOD, seq_add, seq_diff
from .layer import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RTO_NS,
    DEFAULT_WINDOW,
    RllLayer,
)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RTO_NS",
    "DEFAULT_WINDOW",
    "KIND_ACK",
    "KIND_DATA",
    "RllLayer",
    "SEQ_MOD",
    "seq_add",
    "seq_diff",
]
