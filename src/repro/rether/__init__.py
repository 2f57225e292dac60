"""Rether: software token-passing real-time Ethernet (paper §1, §6.2).

A from-scratch implementation of the behaviour the paper's case study
injects faults into: acknowledged round-robin token passing, failure
detection after three unacknowledged token transmissions, ring
reconstruction around dead nodes, token regeneration, and a per-cycle
transmission budget.
"""

from .install import install_rether
from .layer import (
    DEFAULT_ACK_TIMEOUT_NS,
    DEFAULT_BURST_FRAMES,
    DEFAULT_CYCLE_TARGET_NS,
    DEFAULT_MAX_TOKEN_ATTEMPTS,
    DEFAULT_REGENERATION_TIMEOUT_NS,
    RetherLayer,
)
from .messages import TYPE_TOKEN, TYPE_TOKEN_ACK

__all__ = [
    "DEFAULT_ACK_TIMEOUT_NS",
    "DEFAULT_BURST_FRAMES",
    "DEFAULT_CYCLE_TARGET_NS",
    "DEFAULT_MAX_TOKEN_ATTEMPTS",
    "DEFAULT_REGENERATION_TIMEOUT_NS",
    "RetherLayer",
    "TYPE_TOKEN",
    "TYPE_TOKEN_ACK",
    "install_rether",
]
