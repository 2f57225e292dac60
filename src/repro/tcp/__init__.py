"""A from-scratch TCP implementation.

Covers everything the paper's case studies exercise from the wire: the
three-way handshake with retransmission, Tahoe congestion control (slow
start / congestion avoidance exactly as §6.1 describes it), RTO estimation
with Karn's rule and exponential backoff, fast retransmit, out-of-order
reassembly, and graceful teardown.  :mod:`repro.tcp.variants` holds the
deliberately-buggy congestion modules that the unchanged FSL scripts must
flag.
"""

from .buffers import SendBuffer
from .congestion import (
    CongestionControl,
    DEFAULT_INITIAL_SSTHRESH,
    MIN_SSTHRESH,
    RenoCongestionControl,
)
from .connection import (
    DEFAULT_MSS,
    DUPACK_THRESHOLD,
    TcpConnection,
    TcpState,
)
from .layer import TcpLayer, TcpListener
from .rto import RttEstimator
from .seqmath import seq_add, seq_diff, seq_gt, seq_le
from .variants import (
    VARIANTS,
    AggressiveSlowStart,
    EagerCongestionAvoidance,
    FrozenWindow,
    IgnoresSsthreshReset,
    NoCongestionAvoidance,
)

__all__ = [
    "AggressiveSlowStart",
    "CongestionControl",
    "DEFAULT_INITIAL_SSTHRESH",
    "DEFAULT_MSS",
    "DUPACK_THRESHOLD",
    "EagerCongestionAvoidance",
    "FrozenWindow",
    "IgnoresSsthreshReset",
    "MIN_SSTHRESH",
    "NoCongestionAvoidance",
    "RenoCongestionControl",
    "RttEstimator",
    "SendBuffer",
    "TcpConnection",
    "TcpLayer",
    "TcpListener",
    "TcpState",
    "VARIANTS",
    "seq_add",
    "seq_diff",
    "seq_gt",
    "seq_le",
]
