"""Deliberately-buggy congestion-control variants.

The paper's headline claim is that one unchanged FSL script can regression-
test multiple versions of a protocol implementation (§1, §8).  These
variants are the "broken versions": each perturbs exactly one rule of the
correct algorithm, and the Fig 5 analysis script — written once, against
the *specification* — must flag every variant whose bug makes the sender
overshoot its window model, without any knowledge of this code.
"""

from __future__ import annotations

from .congestion import CongestionControl, RenoCongestionControl


class NoCongestionAvoidance(CongestionControl):
    """Never leaves slow start: cwnd grows by 1 on every ACK forever.

    This is the failure mode the Fig 5 scenario exists to catch — an
    implementation that does not "detect the crossing of the ssthresh
    value and trigger the congestion avoidance".
    """

    name = "bug-no-congestion-avoidance"

    def on_new_ack(self) -> None:
        self.cwnd += 1


class IgnoresSsthreshReset(CongestionControl):
    """Forgets to lower ssthresh after a retransmission.

    cwnd still resets to 1, but with ssthresh stuck at its initial 64
    segments the sender slow-starts far past the point where the correct
    algorithm would have gone linear.
    """

    name = "bug-ignores-ssthresh-reset"

    def on_retransmit(self) -> None:
        self.cwnd = 1
        self._ca_acks = 0  # ssthresh untouched: the bug


class AggressiveSlowStart(CongestionControl):
    """Grows cwnd by 2 segments per ACK during slow start."""

    name = "bug-aggressive-slow-start"

    def on_new_ack(self) -> None:
        if self.in_slow_start:
            self.cwnd += 2
            self._ca_acks = 0
        else:
            self._ca_acks += 1
            if self._ca_acks > self.cwnd:
                self.cwnd += 1
                self._ca_acks = 0


class EagerCongestionAvoidance(CongestionControl):
    """Congestion avoidance grows cwnd after every other ACK instead of

    after ``cwnd + 1`` ACKs — a plausible arithmetic slip (using a constant
    where the window should appear).
    """

    name = "bug-eager-congestion-avoidance"

    def on_new_ack(self) -> None:
        if self.in_slow_start:
            self.cwnd += 1
            self._ca_acks = 0
        else:
            self._ca_acks += 1
            if self._ca_acks >= 2:
                self.cwnd += 1
                self._ca_acks = 0


class FrozenWindow(CongestionControl):
    """cwnd never grows at all.

    Overly *conservative* rather than aggressive: it never violates the
    window invariant, so the Fig 5 script must NOT flag it — the tests use
    it to demonstrate that the FAE checks what the script says and nothing
    more (no false positives), while a throughput-oriented analysis script
    can still catch it.
    """

    name = "bug-frozen-window"

    def on_new_ack(self) -> None:
        pass


#: Registry used by example/regression drivers: name -> factory.
VARIANTS = {
    variant.name: variant
    for variant in (
        CongestionControl,
        RenoCongestionControl,
        NoCongestionAvoidance,
        IgnoresSsthreshReset,
        AggressiveSlowStart,
        EagerCongestionAvoidance,
        FrozenWindow,
    )
}
