"""Interruption semantics, end to end: a campaign killed mid-flight
(SIGINT and SIGKILL of the parent) resumes from its journal and merges to
``canonical_bytes`` identical to an uninterrupted run.

The interrupted campaign runs as a real subprocess (tests/sweep/
``_durable_helper.py``) so the signals hit a genuine parent process, not
a mocked one.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import read_journal

from tests.sweep.chaos import ChaosWorker

HELPER = os.path.join(os.path.dirname(__file__), "_durable_helper.py")
TOTAL = 10  # keep in sync with _durable_helper.TOTAL

@pytest.fixture
def worker_fleet():
    """Two ``repro worker`` subprocesses (2 slots each), own sessions so
    killing a parent campaign's process group never touches them.  They
    must import the helper campaign's task module (``_remote_tasks``, by
    its top-level name) to run its cells."""
    here = os.path.dirname(os.path.abspath(__file__))
    workers = []
    try:
        for _ in range(2):
            workers.append(ChaosWorker(slots=2, extra_pythonpath=here))
        yield ",".join(worker.address for worker in workers)
    finally:
        for worker in workers:
            worker.close()


def _run_helper(*argv, check=True):
    process = subprocess.run(
        [sys.executable, HELPER, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if check:
        assert process.returncode == 0, process.stderr
    return process


def _summary(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            return dict(pair.split("=", 1) for pair in line.split()[1:])
    raise AssertionError(f"no RESULT line in {stdout!r}")


def _journal_row_count(path: str) -> int:
    if not os.path.exists(path):
        return 0
    try:
        return len(read_journal(path).rows)
    except Exception:  # mid-write torn tail while the victim still runs
        return 0


def _start_victim(backend, journal, flag="--journal", hosts=None):
    # Own session/process group: SIGKILL reaps the slot processes too,
    # at once (on their own they leave only when their cell is done).
    argv = [sys.executable, HELPER, backend, flag, journal]
    if hosts is not None:
        argv += ["--hosts", hosts]
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _kill_group(victim):
    """SIGKILL the victim and every pool worker in its process group."""
    try:
        os.killpg(victim.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    victim.wait(timeout=60)
    victim.stdout.close()
    victim.stderr.close()


def _wait_for_rows(journal, minimum, victim, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if _journal_row_count(journal) >= minimum:
            return
        if victim.poll() is not None:
            raise AssertionError(
                f"victim exited before journaling {minimum} rows: "
                f"{victim.stderr.read()}"
            )
        time.sleep(0.02)
    raise AssertionError(f"journal never reached {minimum} rows")


def _reference_canonical(backend) -> str:
    return _summary(_run_helper(backend).stdout)["canonical"]


@pytest.mark.parametrize("backend", ["serial", "parallel"])
class TestSigintResume:
    def test_sigint_mid_campaign_then_resume_is_byte_identical(
        self, backend, tmp_path
    ):
        journal = str(tmp_path / "campaign.jsonl")
        victim = _start_victim(backend, journal)
        try:
            _wait_for_rows(journal, 2, victim)
            victim.send_signal(signal.SIGINT)
            stdout, _ = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
        # The interrupted run is truthful: aborted, and its outcome
        # covers exactly the journaled rows.
        interrupted = _summary(stdout)
        assert interrupted["aborted"] == "True"
        assert interrupted["interrupted"] == "True"
        journaled = read_journal(journal)
        assert int(interrupted["rows"]) == len(journaled.rows) < TOTAL
        assert journaled.end is not None  # SIGINT flushed an end record
        assert journaled.end["interrupted"] is True
        # Resume completes the grid; bytes match an uninterrupted run.
        resumed = _summary(
            _run_helper(backend, "--resume", journal).stdout
        )
        assert int(resumed["resumed"]) == len(journaled.rows) >= 2
        assert int(resumed["rows"]) == TOTAL
        assert resumed["canonical"] == _reference_canonical(backend)


class TestSigkillResume:
    def test_kill9_mid_campaign_then_resume_is_byte_identical(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        victim = _start_victim("parallel", journal)
        try:
            _wait_for_rows(journal, 2, victim)
        finally:
            _kill_group(victim)  # SIGKILL: no cleanup, no end record
        journaled = read_journal(journal)
        assert 2 <= len(journaled.rows) < TOTAL
        assert journaled.end is None  # nothing got to say goodbye
        resumed = _summary(
            _run_helper("parallel", "--resume", journal).stdout
        )
        assert int(resumed["resumed"]) == len(journaled.rows)
        assert int(resumed["rows"]) == TOTAL
        assert resumed["canonical"] == _reference_canonical("parallel")

class TestTcpInterruption:
    """The distributed backend keeps the same interruption contract as
    serial/parallel: SIGINT flushes a truthful end record, SIGKILL leaves
    a resumable journal, and a resumed campaign against the same fleet
    merges byte-identical to an uninterrupted serial run."""

    def test_sigint_mid_campaign_then_resume_is_byte_identical(
        self, worker_fleet, tmp_path
    ):
        journal = str(tmp_path / "campaign.jsonl")
        victim = _start_victim("tcp", journal, hosts=worker_fleet)
        try:
            _wait_for_rows(journal, 2, victim)
            victim.send_signal(signal.SIGINT)
            stdout, _ = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
        interrupted = _summary(stdout)
        assert interrupted["aborted"] == "True"
        assert interrupted["interrupted"] == "True"
        journaled = read_journal(journal)
        assert int(interrupted["rows"]) == len(journaled.rows) < TOTAL
        assert journaled.end is not None  # SIGINT flushed an end record
        assert journaled.end["interrupted"] is True
        # Resume against the same fleet; bytes match uninterrupted serial.
        resumed = _summary(
            _run_helper(
                "tcp", "--resume", journal, "--hosts", worker_fleet
            ).stdout
        )
        assert int(resumed["resumed"]) == len(journaled.rows) >= 2
        assert int(resumed["rows"]) == TOTAL
        assert resumed["canonical"] == _reference_canonical("serial")

    def test_kill9_parent_then_resume_against_same_fleet(
        self, worker_fleet, tmp_path
    ):
        """The satellite scenario verbatim: SIGKILL the distributed
        campaign's parent mid-flight, restart with --resume against the
        same still-running workers, prove byte-identity to serial."""
        journal = str(tmp_path / "campaign.jsonl")
        victim = _start_victim("tcp", journal, hosts=worker_fleet)
        try:
            _wait_for_rows(journal, 2, victim)
        finally:
            _kill_group(victim)  # SIGKILL: no cleanup, no end record
        journaled = read_journal(journal)
        assert 2 <= len(journaled.rows) < TOTAL
        assert journaled.end is None  # nothing got to say goodbye
        resumed = _summary(
            _run_helper(
                "tcp", "--resume", journal, "--hosts", worker_fleet
            ).stdout
        )
        assert int(resumed["resumed"]) == len(journaled.rows)
        assert int(resumed["rows"]) == TOTAL
        assert resumed["canonical"] == _reference_canonical("serial")


class TestSigkillResumeMore:
    def test_double_interruption_still_converges(self, tmp_path):
        """Kill the campaign, resume, kill the resume, resume again —
        the journal absorbs any number of deaths."""
        journal = str(tmp_path / "campaign.jsonl")
        victim = _start_victim("serial", journal)
        try:
            _wait_for_rows(journal, 2, victim)
        finally:
            _kill_group(victim)
        first_rows = len(read_journal(journal).rows)

        second = _start_victim("serial", journal, flag="--resume")
        try:
            _wait_for_rows(journal, first_rows + 1, second)
        finally:
            _kill_group(second)

        resumed = _summary(
            _run_helper("serial", "--resume", journal).stdout
        )
        assert int(resumed["rows"]) == TOTAL
        assert resumed["canonical"] == _reference_canonical("serial")
        assert read_journal(journal).resumes == 2
