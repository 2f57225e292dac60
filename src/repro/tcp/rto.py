"""Retransmission-timeout estimation (Jacobson/Karels, RFC 6298 style).

The estimator works in integer nanoseconds of virtual time and quantises
the resulting RTO up to the 10 ms jiffy, since the paper's platform (Linux
2.4) arms retransmission timers on the jiffy clock.
"""

from __future__ import annotations

from ..sim import JIFFY_NS, NS_PER_MS, NS_PER_SEC

#: Linux 2.4 bounds: TCP_RTO_MIN = 200 ms, TCP_RTO_MAX = 120 s.
MIN_RTO_NS = 200 * NS_PER_MS
MAX_RTO_NS = 120 * NS_PER_SEC
#: Initial RTO before any sample exists.
INITIAL_RTO_NS = 1 * NS_PER_SEC


def _quantize(rto: int) -> int:
    whole, rem = divmod(rto, JIFFY_NS)
    return (whole + (1 if rem else 0)) * JIFFY_NS


class RttEstimator:
    """SRTT/RTTVAR tracking with exponential backoff on timeouts."""

    def __init__(self) -> None:
        self._srtt = 0
        self._rttvar = 0
        self._has_sample = False
        self._base_rto = INITIAL_RTO_NS
        self._backoff = 1
        self.samples = 0
        self.timeouts = 0

    @property
    def rto_ns(self) -> int:
        """Current retransmission timeout, backed off and jiffy-quantised."""
        rto = self._base_rto * self._backoff
        rto = max(MIN_RTO_NS, min(MAX_RTO_NS, rto))
        return _quantize(rto)

    def on_measurement(self, rtt_ns: int) -> None:
        """Fold in an RTT sample from a segment that was never retransmitted

        (Karn's algorithm: retransmitted segments are never sampled).
        """
        if rtt_ns < 0:
            raise ValueError(f"negative RTT sample: {rtt_ns}")
        self.samples += 1
        if not self._has_sample:
            self._srtt = rtt_ns
            self._rttvar = rtt_ns // 2
            self._has_sample = True
        else:
            err = abs(self._srtt - rtt_ns)
            self._rttvar = (3 * self._rttvar + err) // 4
            self._srtt = (7 * self._srtt + rtt_ns) // 8
        self._base_rto = self._srtt + max(4 * self._rttvar, JIFFY_NS)
        self._backoff = 1  # a fresh sample clears any backoff

    def on_timeout(self) -> None:
        """Exponential backoff after a retransmission timeout."""
        self.timeouts += 1
        if self.rto_ns < MAX_RTO_NS:
            self._backoff *= 2

    def __repr__(self) -> str:
        return (
            f"RttEstimator(srtt={self._srtt / NS_PER_MS:.1f}ms, "
            f"rto={self.rto_ns / NS_PER_MS:.0f}ms, backoff=x{self._backoff})"
        )
