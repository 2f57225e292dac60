"""FleetHealth: scoring, quarantine durations, snapshots.

What a quarantine costs a campaign — escalation, decay, a good row ending
a failure streak — is asserted where a user sees it, on the TASK timing
and makespan of ``tests/sweep/test_fleet_chaos.py``'s ``TestQuarantine``.
"""

from repro.sweep.health import (
    FAILURE_THRESHOLD,
    QUARANTINE_BASE_S,
    QUARANTINE_CAP_S,
    FleetHealth,
)


def _quarantine(health, address="w:1", now=0.0):
    """Score failures up to the threshold; the quarantine left at *now*."""
    for _ in range(FAILURE_THRESHOLD):
        health.record_failure(address, "loss", now=now)
    return health.quarantine_remaining(address, now)


class TestScoring:
    def test_first_connect_is_not_a_rejoin(self):
        health = FleetHealth()
        assert health.record_connect("w:1") is False
        assert health.record_connect("w:1") is True  # now it is

    def test_failures_below_threshold_do_not_quarantine(self):
        health = FleetHealth()
        for _ in range(FAILURE_THRESHOLD - 1):
            health.record_failure("w:1", "loss", now=0.0)
        assert not health.is_quarantined("w:1", now=0.0)
        assert health.quarantine_remaining("w:1", now=0.0) == 0.0

    def test_threshold_crossing_quarantines(self):
        assert (FAILURE_THRESHOLD, QUARANTINE_BASE_S) == (3, 1.0)
        health = FleetHealth()
        assert _quarantine(health) == 1.0  # on the third failure
        assert health.is_quarantined("w:1", now=0.5)
        assert not health.is_quarantined("w:1", now=1.5)  # expired
        assert health.quarantine_remaining("w:1", now=0.25) == 0.75

    def test_quarantine_backs_off_exponentially_and_caps(self):
        assert QUARANTINE_CAP_S == 30.0
        health = FleetHealth()
        durations = [_quarantine(health, now=100.0 * k) for k in range(7)]
        assert durations == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]  # capped

    def test_workers_are_scored_independently(self):
        health = FleetHealth()
        _quarantine(health)
        assert health.is_quarantined("w:1", now=0.1)
        assert not health.is_quarantined("w:2", now=0.1)


class TestSnapshot:
    def test_snapshot_merges_metrics_and_quarantine_state(self):
        health = FleetHealth()
        health.record_connect("w:1")
        health.record_row("w:1", 0.05)
        health.record_heartbeat("w:1", now=1.0)
        health.record_heartbeat("w:1", now=1.5)
        _quarantine(health, "w:2")
        snap = health.snapshot(now=0.25)
        assert sorted(snap) == ["w:1", "w:2"]
        assert snap["w:1"]["fleet.rows"] == 1
        assert snap["w:1"]["fleet.heartbeats"] == 2
        assert snap["w:1"]["quarantined"] is False
        assert snap["w:2"]["fleet.failures_loss"] == FAILURE_THRESHOLD
        assert snap["w:2"]["quarantined"] is True
        assert snap["w:2"]["quarantine_remaining_s"] == 0.75
        assert snap["w:2"]["fleet.quarantines"] == 1

    def test_heartbeat_jitter_feeds_a_histogram(self):
        health = FleetHealth()
        health.record_heartbeat("w:1", now=0.0)
        health.record_heartbeat("w:1", now=0.2)
        snap = health.snapshot(now=1.0)
        jitter = snap["w:1"]["fleet.heartbeat_gap_ms"]
        assert jitter["count"] == 1  # one gap between two beats
        assert jitter["min"] == jitter["max"] == 200  # the 0.2s gap, in ms
