"""Per-worker health scoring and quarantine for the distributed fleet.

The tcp backend's scheduler treats the fleet itself as a system under
observation: every worker accumulates a health record — connects and
rejoins, completed rows, task-level failures, connection losses,
heartbeat jitter — through the same :class:`~repro.analysis.metrics.
MetricsRegistry` idiom the fault-analysis layer uses for simulated nodes
(one "node" per worker address, metrics namespaced under the ``fleet``
layer, canonical sorted snapshots).

A worker that misbehaves repeatedly (:data:`FAILURE_THRESHOLD`
consecutive failures) is **quarantined**: the scheduler stops assigning
it work and stops redialling it until the quarantine expires.  Quarantine
durations back off exponentially per repeat offence
(:data:`QUARANTINE_BASE_S` doubling up to :data:`QUARANTINE_CAP_S`) and
*decay* with good behaviour — every :data:`DECAY_ROWS` completed rows
forgives one quarantine level — so a host that flapped during a bad
minute earns its way back to full duty instead of being written off for
the campaign.  The four are policy, not settings.  Only when the *whole*
fleet is unusable does the scheduler raise
:class:`~repro.sweep.spec.SweepError`; one sick worker never fails a
campaign on its own.

The tracker reads no clock: every method that judges time takes the
caller's ``now`` (seconds on any monotonic scale), which is what lets the
scheduler — and its tests — run in virtual time.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.metrics import MetricsRegistry

#: consecutive failures (losses or worker-reported task crashes) that
#: trigger a quarantine.
FAILURE_THRESHOLD = 3

#: first quarantine duration; doubles per repeat offence.
QUARANTINE_BASE_S = 1.0

#: quarantine durations never exceed this.
QUARANTINE_CAP_S = 30.0

#: completed rows that forgive one quarantine level (decaying backoff).
DECAY_ROWS = 8


class _WorkerState:
    """Mutable scheduler-side record for one worker address."""

    __slots__ = (
        "consecutive_failures",
        "level",
        "quarantined_until",
        "rows_since_decay",
        "last_heartbeat",
    )

    def __init__(self) -> None:
        self.consecutive_failures = 0
        #: repeat-offence level: the next quarantine lasts base * 2**level.
        self.level = 0
        self.quarantined_until = 0.0
        self.rows_since_decay = 0
        self.last_heartbeat: Optional[float] = None


class FleetHealth:
    """Health scores, quarantine policy and per-worker fleet metrics."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._state: Dict[str, _WorkerState] = {}

    # ------------------------------------------------------------------

    def _worker(self, address: str) -> _WorkerState:
        state = self._state.get(address)
        if state is None:
            state = _WorkerState()
            self._state[address] = state
        return state

    def _metrics(self, address: str):
        return self.registry.node(address)

    # -- event recording ------------------------------------------------

    def record_connect(self, address: str) -> bool:
        """Score a successful (authenticated) handshake.

        Returns True when this is a *rejoin* — the address had served
        before — so the scheduler can run its loss-forgiveness pass.
        Connecting clears the consecutive-failure streak (the handshake is
        itself evidence of health).  It leaves a quarantine alone: the
        scheduler redials no sooner than the quarantine ends.
        """
        metrics = self._metrics(address)
        rejoin = metrics.counter("fleet", "connects").snapshot() > 0
        metrics.counter("fleet", "connects").inc()
        if rejoin:
            metrics.counter("fleet", "rejoins").inc()
        state = self._worker(address)
        state.consecutive_failures = 0
        state.last_heartbeat = None
        return rejoin

    def record_row(self, address: str, wall_seconds: float) -> None:
        """Score one completed row: clears the failure streak and decays
        the quarantine level every :data:`DECAY_ROWS` rows."""
        metrics = self._metrics(address)
        metrics.counter("fleet", "rows").inc()
        metrics.histogram("fleet", "task_wall_ms").observe(
            int(max(0.0, wall_seconds) * 1000)
        )
        state = self._worker(address)
        state.consecutive_failures = 0
        state.rows_since_decay += 1
        if state.level > 0 and state.rows_since_decay >= DECAY_ROWS:
            state.level -= 1
            state.rows_since_decay = 0

    def record_heartbeat(self, address: str, now: float) -> None:
        """Score one heartbeat; the gap to the previous one feeds the
        jitter histogram (milliseconds)."""
        state = self._worker(address)
        metrics = self._metrics(address)
        metrics.counter("fleet", "heartbeats").inc()
        if state.last_heartbeat is not None:
            gap_ms = int(max(0.0, now - state.last_heartbeat) * 1000)
            metrics.histogram("fleet", "heartbeat_gap_ms").observe(gap_ms)
        state.last_heartbeat = now

    def record_failure(self, address: str, kind: str, now: float) -> None:
        """Score one failure: ``kind`` is ``"loss"`` for a connection that
        died — EOF, reset, a failed send, heartbeat silence — and
        ``"error"`` for a task casualty the worker reported itself.  The
        :data:`FAILURE_THRESHOLD`-th in a row quarantines the worker.
        """
        metrics = self._metrics(address)
        metrics.counter("fleet", f"failures_{kind}").inc()
        state = self._worker(address)
        state.consecutive_failures += 1
        state.rows_since_decay = 0
        metrics.gauge("fleet", "consecutive_failures").set(
            state.consecutive_failures
        )
        if state.consecutive_failures < FAILURE_THRESHOLD:
            return
        duration = min(QUARANTINE_BASE_S * (2 ** state.level), QUARANTINE_CAP_S)
        state.quarantined_until = now + duration
        state.level += 1
        state.consecutive_failures = 0
        metrics.counter("fleet", "quarantines").inc()

    # -- queries ---------------------------------------------------------

    def is_quarantined(self, address: str, now: float) -> bool:
        state = self._state.get(address)
        return state is not None and now < state.quarantined_until

    def quarantine_remaining(self, address: str, now: float) -> float:
        state = self._state.get(address)
        if state is None:
            return 0.0
        return max(0.0, state.quarantined_until - now)

    def snapshot(self, now: float) -> Dict[str, Dict[str, object]]:
        """Canonical per-worker dump: the metrics-registry snapshot plus
        live quarantine state, sorted by address."""
        merged: Dict[str, Dict[str, object]] = {}
        metrics = self.registry.snapshot()
        for address in sorted(self._state):
            state = self._state[address]
            merged[address] = dict(metrics.get(address, {}))
            merged[address]["quarantined"] = now < state.quarantined_until
            merged[address]["quarantine_level"] = state.level
            merged[address]["quarantine_remaining_s"] = round(
                max(0.0, state.quarantined_until - now), 3
            )
        return merged


__all__ = [
    "DECAY_ROWS",
    "FAILURE_THRESHOLD",
    "QUARANTINE_BASE_S",
    "QUARANTINE_CAP_S",
    "FleetHealth",
]
