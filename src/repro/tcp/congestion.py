"""Congestion control: slow start and congestion avoidance.

This implements exactly the algorithm the paper describes in §6.1 (after
RFC 2001/ W. Stevens):

* the window is counted in segments;
* ``cwnd`` starts at 1, 2 or 4 segments; ``ssthresh`` starts at 64 KB
  (64 segments at the default 1 KB MSS);
* **slow start** while ``cwnd <= ssthresh``: each ACK of new data grows
  ``cwnd`` by one segment;
* **congestion avoidance** once ``cwnd > ssthresh``: an internal ack
  counter grows and ``cwnd`` increases by one segment after ``cwnd + 1``
  ACKs — the exact counting scheme the paper's Fig 5 analysis script
  models with its CCNT counter (``CCNT > CWND``);
* on **any retransmission** (timeout or fast retransmit), ``ssthresh``
  drops to half of ``cwnd`` but never below 2 segments, and ``cwnd``
  resets to 1 (Tahoe behaviour, as described in the paper).

The class is deliberately small and stateless beyond three integers so the
deliberately-buggy variants in :mod:`repro.tcp.variants` can subclass it and
perturb one rule at a time.
"""

from __future__ import annotations

#: Initial congestion window, in segments: the paper allows 1, 2 or 4
#: (§6.1) and every run here starts at 1.
INITIAL_CWND = 1
#: Default initial slow-start threshold, in segments: 64 KB at 1 KB MSS.
DEFAULT_INITIAL_SSTHRESH = 64
#: Lower bound on ssthresh after a retransmission, in segments ("not less
#: than 2 MSS", paper §6.1).
MIN_SSTHRESH = 2


class CongestionControl:
    """Tahoe-style slow start + congestion avoidance, counted in segments."""

    name = "tahoe"

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = DEFAULT_INITIAL_SSTHRESH
        self._ca_acks = 0
        # Observability for tests and ablations.
        self.retransmit_events = 0
        self.acks_seen = 0

    # -- queries --------------------------------------------------------------

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd <= self.ssthresh

    def window_segments(self) -> int:
        """Segments the congestion window currently allows in flight."""
        return self.cwnd

    # -- events ---------------------------------------------------------------

    def on_new_ack(self) -> None:
        """An ACK advancing ``snd_una`` arrived."""
        self.acks_seen += 1
        if self.in_slow_start:
            self.cwnd += 1
            self._ca_acks = 0
        else:
            self._ca_acks += 1
            if self._ca_acks > self.cwnd:
                self.cwnd += 1
                self._ca_acks = 0

    def on_retransmit(self) -> None:
        """A segment was retransmitted (timeout or fast retransmit)."""
        self.retransmit_events += 1
        self.ssthresh = max(self.cwnd // 2, MIN_SSTHRESH)
        self.cwnd = 1
        self._ca_acks = 0

    def on_fast_retransmit(self) -> None:
        """A fast retransmit fired.  Tahoe treats it like a timeout;

        Reno-style variants override this with fast recovery.
        """
        self.on_retransmit()

    def on_duplicate_ack(self, count: int) -> None:
        """A duplicate ACK arrived (*count* consecutive so far).  No-op for

        Tahoe; hooks exist so variants can misbehave here.
        """

    def __repr__(self) -> str:
        phase = "slow-start" if self.in_slow_start else "cong-avoid"
        return (
            f"{type(self).__name__}(cwnd={self.cwnd}, "
            f"ssthresh={self.ssthresh}, {phase})"
        )


class RenoCongestionControl(CongestionControl):
    """Reno-style fast recovery: a conforming *alternative* version.

    On a fast retransmit the window halves to ssthresh instead of
    collapsing to one segment (window inflation during recovery is not
    modelled — the bulk senders here refill instantly, so the difference
    is unobservable).  Timeouts still reset to 1 segment, as in every
    Reno.  Both Tahoe and Reno satisfy the paper's Fig 5 scenario, which
    exercises the loss-free slow-start/congestion-avoidance switch — a
    second demonstration that one script spans conforming versions.
    """

    name = "reno"

    def on_fast_retransmit(self) -> None:
        self.retransmit_events += 1
        self.ssthresh = max(self.cwnd // 2, MIN_SSTHRESH)
        self.cwnd = self.ssthresh
        self._ca_acks = 0
