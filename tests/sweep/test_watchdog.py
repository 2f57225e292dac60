"""Task-watchdog tests: hung tasks become deterministic TIMEOUT rows
(after one retry) instead of stalling the campaign."""

import threading
import time

import pytest

from repro.sweep import (
    SweepError,
    SweepResult,
    SweepSpec,
    run_sweep,
    sleep_task,
)
from repro.sweep.remote import WorkerServer
from repro.sweep.runner import execute_task, timeout_error
from tests.sweep.conftest import row_named


def _ok_task(task):
    return {"index": task.index, "passed": True}


def _hang_task(task):
    time.sleep(60.0)
    return {"passed": True}


def _swallowing_task(task):
    """A task whose blanket ``except Exception`` must not defeat the
    watchdog (the deadline is a BaseException)."""
    try:
        time.sleep(60.0)
    except Exception:
        pass
    return {"passed": True}


def _mixed_spec():
    spec = SweepSpec("hangs", base_seed=2)
    spec.add("ok0", _ok_task)
    spec.add("hung", _hang_task)
    spec.add("ok1", _ok_task)
    return spec


class TestTimeoutRows:
    def test_hung_task_becomes_timeout_row_serial(self):
        started = time.monotonic()
        outcome = run_sweep(_mixed_spec(), backend="serial", task_timeout=0.2)
        assert time.monotonic() - started < 10.0  # did not hang
        row = row_named(outcome, "hung")
        assert row.status == SweepResult.TIMEOUT
        assert not row.ok
        assert row.attempts == 2  # one bounded retry, then recorded
        assert row.error == "task exceeded 0.2s wall-clock deadline"
        assert outcome.timed_out == 1
        assert not outcome.passed
        assert row_named(outcome, "ok0").ok and row_named(outcome, "ok1").ok

    def test_serial_and_parallel_timeout_rows_are_byte_identical(self):
        serial = run_sweep(_mixed_spec(), backend="serial", task_timeout=0.2)
        parallel = run_sweep(
            _mixed_spec(),
            backend="parallel",
            workers=2,
            task_timeout=0.2,
        )
        assert serial.canonical_bytes() == parallel.canonical_bytes()
        assert parallel.timed_out == 1

    def test_tcp_timeout_rows_match_serial(self):
        """HELLO's ``task_timeout`` reaches a worker's slots, which retry
        and record exactly as serial does."""
        server = WorkerServer(slots=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            tcp = run_sweep(
                _mixed_spec(),
                backend="tcp",
                hosts=[(server.host, server.port)],
                task_timeout=0.2,
            )
        finally:
            server.stop()
        serial = run_sweep(_mixed_spec(), backend="serial", task_timeout=0.2)
        assert tcp.canonical_bytes() == serial.canonical_bytes()
        assert row_named(tcp, "hung").attempts == 2

    def test_watchdog_defeats_exception_swallowers(self):
        spec = SweepSpec("swallow", base_seed=1).add("evil", _swallowing_task)
        outcome = run_sweep(spec, backend="serial", task_timeout=0.2)
        assert outcome.rows[0].status == SweepResult.TIMEOUT

    def test_sleep_task_is_the_ci_smoke_cell(self):
        spec = SweepSpec("smoke", base_seed=0).add(
            "hang", sleep_task, sleep_s=60.0
        )
        outcome = run_sweep(spec, backend="serial", task_timeout=0.2)
        assert outcome.rows[0].status == SweepResult.TIMEOUT

    def test_fast_tasks_are_untouched_by_the_watchdog(self):
        spec = SweepSpec("fast", base_seed=3)
        for i in range(4):
            spec.add(f"t{i}", _ok_task)
        armed = run_sweep(spec, backend="serial", task_timeout=30.0)
        bare = run_sweep(spec, backend="serial")
        assert armed.timed_out == 0
        assert armed.canonical_bytes() == bare.canonical_bytes()

    def test_timeout_trips_fail_fast(self):
        spec = SweepSpec("ff", base_seed=1)
        spec.add("hung", _hang_task)
        for i in range(3):
            spec.add(f"t{i}", _ok_task)
        outcome = run_sweep(
            spec,
            backend="serial",
            task_timeout=0.2,
            fail_fast=True,
        )
        assert outcome.aborted
        assert len(outcome.rows) == 1


class TestRetryBackoff:
    def test_retry_then_success(self):
        """A task that is slow on attempt 1 but fast after the retry
        completes OK with attempts=2 — transient stalls are survivable."""

        def flaky(task):  # serial backend: closure is fine
            flaky.calls += 1
            if flaky.calls == 1:
                time.sleep(60.0)
            return {"passed": True, "call": flaky.calls}

        flaky.calls = 0
        flaky.__module__, flaky.__qualname__ = __name__, "flaky"
        spec = SweepSpec("flaky", base_seed=1).add("cell", flaky)
        outcome = run_sweep(spec, backend="serial", task_timeout=0.2)
        row = outcome.rows[0]
        assert row.status == SweepResult.OK
        assert row.attempts == 2
        assert row.payload["call"] == 2

    def test_execute_task_retries_once_then_times_out(self):
        task = SweepSpec("t", base_seed=1).add("hang", _hang_task).tasks()[0]
        started = time.monotonic()
        row = execute_task(task, 0.1)
        elapsed = time.monotonic() - started
        assert row.status == SweepResult.TIMEOUT
        assert row.attempts == 2  # the first run and its one retry
        assert row.error == timeout_error(0.1)
        assert row.error_detail.endswith("hit its 0.1s deadline on all 2 attempts")
        # Two 0.1 s deadlines, back to back, with slack.
        assert 0.2 <= elapsed < 5.0
        assert row.wall_seconds >= 0.2


class TestValidation:
    def test_bad_timeout_rejected(self):
        with pytest.raises(SweepError, match="task_timeout"):
            run_sweep(SweepSpec("s"), backend="serial", task_timeout=0.0)
