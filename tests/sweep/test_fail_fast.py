"""Fail-fast campaigns: stop at the first failed row.

Serial backend: later tasks are never started.  Parallel backend: cells
not yet dispatched to a slot never are; cells already running finish and
keep their rows.
Either way the outcome carries ``aborted=True`` and renders the early
stop explicitly.
"""

import time

from repro.sweep import SweepSpec, run_sweep


def _ok_task(task):
    return {"index": task.index, "passed": True}


def _failing_verdict_task(task):
    return {"index": task.index, "passed": False}


def _raising_task(task):
    raise ValueError(f"boom in {task.name}")


def _slow_ok_task(task):
    time.sleep(0.5)
    return {"index": task.index, "passed": True}


def _slow_failing_verdict_task(task):
    time.sleep(0.3)  # long enough for every slot to have taken its cell
    return {"index": task.index, "passed": False}


def _campaign(fail_at: int, total: int = 8, bad=_failing_verdict_task):
    spec = SweepSpec("fail-fast", base_seed=1)
    for i in range(total):
        spec.add(f"t{i}", bad if i == fail_at else _ok_task)
    return spec


class TestSerialFailFast:
    def test_stops_enumerating_after_first_failure(self):
        outcome = run_sweep(_campaign(fail_at=2), backend="serial", fail_fast=True)
        assert [row.name for row in outcome.rows] == ["t0", "t1", "t2"]
        assert outcome.aborted
        assert not outcome.passed

    def test_exception_row_also_trips(self):
        outcome = run_sweep(
            _campaign(fail_at=0, bad=_raising_task),
            backend="serial",
            fail_fast=True,
        )
        assert len(outcome.rows) == 1
        assert not outcome.rows[0].ok
        assert outcome.aborted

    def test_clean_campaign_is_not_aborted(self):
        spec = SweepSpec("clean", base_seed=1)
        for i in range(4):
            spec.add(f"t{i}", _ok_task)
        outcome = run_sweep(spec, backend="serial", fail_fast=True)
        assert len(outcome.rows) == 4
        assert outcome.passed
        assert not outcome.aborted

    def test_failure_on_final_task_still_reports_aborted(self):
        """The abort flag is the backend's own decision, not a row-count
        inference: a failure on the very last task leaves nothing to skip
        yet the campaign still stopped early in spirit — aborted=True."""
        outcome = run_sweep(
            _campaign(fail_at=7, total=8), backend="serial", fail_fast=True
        )
        assert len(outcome.rows) == 8  # every task ran...
        assert outcome.aborted  # ...but fail-fast still tripped
        assert not outcome.passed

    def test_failure_on_final_task_parallel(self):
        outcome = run_sweep(
            _campaign(fail_at=7, total=8),
            backend="parallel",
            workers=1,
            fail_fast=True,
        )
        assert len(outcome.rows) == 8
        assert outcome.aborted

    def test_without_flag_all_rows_run(self):
        outcome = run_sweep(_campaign(fail_at=2), backend="serial")
        assert len(outcome.rows) == 8
        assert not outcome.aborted  # complete, just failed

    def test_render_mentions_the_abort(self):
        outcome = run_sweep(_campaign(fail_at=0), backend="serial", fail_fast=True)
        assert "fail-fast" in outcome.render()


class TestParallelFailFast:
    def test_pending_tasks_are_cancelled(self):
        """With one worker, the queue drains strictly in order: the
        failure at t0 must leave the tasks behind it undispatched."""
        outcome = run_sweep(
            _campaign(fail_at=0, total=12),
            backend="parallel",
            workers=1,
            fail_fast=True,
        )
        assert outcome.aborted
        assert len(outcome.rows) < 12
        assert outcome.rows[0].name == "t0"

    def test_inflight_tasks_keep_their_rows(self):
        """A row, once begun, is never half-reported: tasks already
        running when the abort lands still finish and appear."""
        spec = SweepSpec("inflight", base_seed=1)
        spec.add("bad", _slow_failing_verdict_task)
        spec.add("slow", _slow_ok_task)
        outcome = run_sweep(spec, backend="parallel", workers=2, fail_fast=True)
        names = [row.name for row in outcome.rows]
        assert "bad" in names
        # Both were running (2 slots) when the failure landed: both rows
        # survive.
        assert "slow" in names
        assert outcome.row("slow").payload["passed"] is True

    def test_full_pass_matches_serial_bytes(self):
        """fail_fast on a healthy campaign must not disturb the
        serial/parallel byte-identity of the full run."""
        spec = SweepSpec("healthy", base_seed=2)
        for i in range(6):
            spec.add(f"t{i}", _ok_task)
        serial = run_sweep(spec, backend="serial", fail_fast=True)
        parallel = run_sweep(spec, backend="parallel", workers=2, fail_fast=True)
        assert not serial.aborted and not parallel.aborted
        assert serial.canonical_bytes() == parallel.canonical_bytes()
