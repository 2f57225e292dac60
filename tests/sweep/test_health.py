"""FleetHealth: scoring, quarantine backoff/decay, snapshots."""

import pytest

from repro.sweep import SweepError
from repro.sweep.health import FleetHealth


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(SweepError, match="failure_threshold"):
            FleetHealth(failure_threshold=0)

    def test_bad_backoff(self):
        with pytest.raises(SweepError, match="base <= cap"):
            FleetHealth(quarantine_base_s=0)
        with pytest.raises(SweepError, match="base <= cap"):
            FleetHealth(quarantine_base_s=5.0, quarantine_cap_s=1.0)

    def test_bad_decay(self):
        with pytest.raises(SweepError, match="decay_rows"):
            FleetHealth(decay_rows=0)


class TestScoring:
    def test_first_connect_is_not_a_rejoin(self):
        health = FleetHealth()
        assert health.record_connect("w:1") is False
        assert health.record_connect("w:1") is True  # now it is
        assert health.known_workers() == ["w:1"]

    def test_failures_below_threshold_do_not_quarantine(self):
        health = FleetHealth(failure_threshold=3)
        assert health.record_failure("w:1", "loss", now=0.0) is None
        assert health.record_failure("w:1", "loss", now=0.0) is None
        assert not health.is_quarantined("w:1", now=0.0)

    def test_threshold_crossing_quarantines(self):
        health = FleetHealth(failure_threshold=2, quarantine_base_s=1.0)
        assert health.record_failure("w:1", "loss", now=0.0) is None
        assert health.record_failure("w:1", "loss", now=0.0) == 1.0
        assert health.is_quarantined("w:1", now=0.5)
        assert not health.is_quarantined("w:1", now=1.5)  # expired
        assert health.quarantine_remaining("w:1", now=0.25) == 0.75

    def test_rows_clear_the_failure_streak(self):
        health = FleetHealth(failure_threshold=2)
        health.record_failure("w:1", "error", now=0.0)
        health.record_row("w:1", 0.1)  # streak reset
        assert health.record_failure("w:1", "error", now=0.0) is None
        assert not health.is_quarantined("w:1", now=0.0)

    def test_quarantine_backs_off_exponentially_and_caps(self):
        health = FleetHealth(
            failure_threshold=1, quarantine_base_s=1.0, quarantine_cap_s=3.0
        )
        assert health.record_failure("w:1", "loss", now=0.0) == 1.0
        assert health.record_failure("w:1", "loss", now=10.0) == 2.0
        assert health.record_failure("w:1", "loss", now=20.0) == 3.0  # capped
        assert health.record_failure("w:1", "loss", now=30.0) == 3.0

    def test_good_rows_decay_the_quarantine_level(self):
        health = FleetHealth(
            failure_threshold=1, quarantine_base_s=1.0, decay_rows=2
        )
        health.record_failure("w:1", "loss", now=0.0)  # level 0 -> 1
        health.record_row("w:1", 0.1)
        health.record_row("w:1", 0.1)  # two good rows: level 1 -> 0
        assert health.record_failure("w:1", "loss", now=100.0) == 1.0  # base again

    def test_reconnect_clears_quarantine(self):
        health = FleetHealth(
            failure_threshold=1, quarantine_base_s=60.0, quarantine_cap_s=60.0
        )
        health.record_failure("w:1", "loss", now=0.0)
        assert health.is_quarantined("w:1", now=1.0)
        health.record_connect("w:1")
        assert not health.is_quarantined("w:1", now=1.0)

    def test_workers_are_scored_independently(self):
        health = FleetHealth(failure_threshold=1)
        health.record_failure("w:1", "loss", now=0.0)
        assert health.is_quarantined("w:1", now=0.1)
        assert not health.is_quarantined("w:2", now=0.1)


class TestSnapshot:
    def test_snapshot_merges_metrics_and_quarantine_state(self):
        health = FleetHealth(failure_threshold=2, quarantine_base_s=4.0)
        health.record_connect("w:1")
        health.record_row("w:1", 0.05)
        health.record_heartbeat("w:1", now=1.0)
        health.record_heartbeat("w:1", now=1.5)
        health.record_failure("w:2", "loss", now=0.0)
        health.record_failure("w:2", "loss", now=0.0)
        snap = health.snapshot(now=1.0)
        assert sorted(snap) == ["w:1", "w:2"]
        assert snap["w:1"]["fleet.rows"] == 1
        assert snap["w:1"]["fleet.heartbeats"] == 2
        assert snap["w:1"]["quarantined"] is False
        assert snap["w:2"]["fleet.failures_loss"] == 2
        assert snap["w:2"]["quarantined"] is True
        assert snap["w:2"]["quarantine_remaining_s"] == 3.0
        assert snap["w:2"]["fleet.quarantines"] == 1

    def test_heartbeat_jitter_feeds_a_histogram(self):
        health = FleetHealth()
        health.record_heartbeat("w:1", now=0.0)
        health.record_heartbeat("w:1", now=0.2)
        snap = health.snapshot(now=1.0)
        jitter = snap["w:1"]["fleet.heartbeat_gap_ms"]
        assert jitter["count"] == 1  # one gap between two beats
        assert jitter["min"] == jitter["max"] == 200  # the 0.2s gap, in ms
