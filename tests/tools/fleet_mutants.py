"""The fleet audit as a standing gate: every fleet policy is held by a test
a user could see fail.

Each entry of :data:`MUTANTS` weakens one policy branch of the sweep tier's
fleet (``sweep/fleet.py``, ``health.py``, ``remote.py``, ``runner.py``) and
names the test that must fail on it.  That test asserts something a user
sees: a verdict, ``canonical_bytes()``, a row's status or attempts, or, on
``tests/sweep/fleet_sim.py``'s ``FleetSim``, the makespan or when TASK
frames go out -- not a counter the branch keeps about itself (one row, the
relay's, is held on the wire).  A branch no such test can hold leaves
``src`` instead of joining the table.

``--check`` runs the named tests once on the tree as it is, then applies
each mutant alone to a temporary copy of ``src`` (never to the tree) and
runs only its named test against that copy.  It fails if a mutant's old
text no longer occurs exactly once in its file, if a named test is not
found or fails without a mutant, or if one passes with its mutant (the
mutant survives).  A test that outruns :data:`TIMEOUT_S` counts as
failing.  docs/SWEEP.md, "Fleet policies and what holds them", is this
table with the assertion that fails first.

    python tests/tools/fleet_mutants.py           # print the table
    python tests/tools/fleet_mutants.py --check   # run every mutant (two at a time)
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: seconds one mutant's test may run; past it the mutant counts as killed
#: (a policy whose loss hangs the campaign is held all the same).
TIMEOUT_S = 60

#: mutants run at once, each one pytest process.
JOBS = 2


class Mutant(NamedTuple):
    policy: str
    path: str  # under src/repro
    old: str
    new: str
    test: str  # a pytest node id


_CHAOS = "tests/sweep/test_fleet_chaos.py::"
_REMOTE = "tests/sweep/test_remote.py::"

MUTANTS = (
    # -- sweep/fleet.py: membership -------------------------------------
    Mutant(
        "a connected worker silent past HEARTBEAT_TIMEOUT_S is lost",
        "sweep/fleet.py",
        "            if silent > HEARTBEAT_TIMEOUT_S:",
        "            if False:",
        _REMOTE + "TestWorkerLoss::test_heartbeat_silence_requeues_held_cells",
    ),
    Mutant(
        "redials back off, doubling to _REDIAL_CAP_S",
        "sweep/fleet.py",
        "now + max(\n            backoff, self.health.quarantine_remaining(address, now)\n        )",
        "now + self.health.quarantine_remaining(address, now)",
        _CHAOS + "TestRedialBackoff::test_redials_to_a_frozen_host_back_off",
    ),
    Mutant(
        "a dial gives the worker DIAL_TIMEOUT_S to answer",
        "sweep/fleet.py",
        "DIAL_TIMEOUT_S = 2.0",
        "DIAL_TIMEOUT_S = 60.0",
        _CHAOS + "TestRedialBackoff::test_redials_to_a_frozen_host_back_off",
    ),
    Mutant(
        "a refusal writes the host off for the campaign",
        "sweep/fleet.py",
        "        if permanent:",
        "        if False:",
        _CHAOS + "TestRefusal::test_a_fleet_of_refusals_fails_at_once_with_the_reason",
    ),
    Mutant(
        "a fleet of refusals fails at once",
        "sweep/fleet.py",
        "hopeless = all(address in self._refused for address in self.addresses)",
        "hopeless = False",
        _CHAOS + "TestRefusal::test_a_fleet_of_refusals_fails_at_once_with_the_reason",
    ),
    Mutant(
        "no usable worker for FLEET_WINDOW_S fails the campaign",
        "sweep/fleet.py",
        "FLEET_WINDOW_S = 10.0",
        "FLEET_WINDOW_S = 1.0",
        _REMOTE + "TestFleetConfig::test_unreachable_fleet_is_sweep_error",
    ),
    Mutant(
        "a rejoin forgives the losses charged to the worker",
        "sweep/fleet.py",
        '            self.stats["rejoins"] += 1\n            self._forgive_losses(address)\n',
        '            self.stats["rejoins"] += 1\n',
        _CHAOS + "TestLossForgiveness::test_each_worker_forgives_a_cell_at_most_once",
    ),
    Mutant(
        "one pardon per (cell, worker) pair",
        "sweep/fleet.py",
        "and address in charges and address not in pardoned:",
        "and address in charges:",
        _CHAOS + "TestLossForgiveness::test_each_worker_forgives_a_cell_at_most_once",
    ),
    # -- sweep/fleet.py: casualties and rows ----------------------------
    Mutant(
        "a lost worker's cell still running elsewhere is not charged",
        "sweep/fleet.py",
        "if index not in self.rows and not self._in_flight(index):",
        "if index not in self.rows:",
        _CHAOS + "TestHedging::test_a_lost_original_leaves_its_running_copy_to_land[worker-loss]",
    ),
    Mutant(
        "a slot crash while a hedged copy runs lands no row",
        "sweep/fleet.py",
        "            if self._in_flight(index):\n                return  # a hedged copy is still running elsewhere\n",
        "",
        _CHAOS + "TestHedging::test_a_lost_original_leaves_its_running_copy_to_land[slot-crash]",
    ),
    Mutant(
        "fail_fast stops dispatch at the first failed row",
        "sweep/fleet.py",
        "        if self.ctx.fail_fast and _is_failure(row):",
        "        if False:",
        _CHAOS + "TestFailFast::test_abort_drains_in_flight_cells_and_sends_nothing_new",
    ),
    # -- sweep/fleet.py: dispatch and hedging ----------------------------
    Mutant(
        "a quarantined worker gets no new cell while connected",
        "sweep/fleet.py",
        "                    if worker.idle > 0 and not self.health.is_quarantined(\n"
        "                        address, now\n                    ):",
        "                    if worker.idle > 0:",
        _CHAOS + "TestQuarantine::test_a_connected_but_quarantined_worker_gets_no_work",
    ),
    Mutant(
        "no hedge before HEDGE_MIN_ROWS rows give a p95",
        "sweep/fleet.py",
        "        if len(self._durations) < HEDGE_MIN_ROWS:",
        "        if not self._durations:",
        _REMOTE + "TestWorkerLoss::test_heartbeat_silence_requeues_held_cells",
    ),
    Mutant(
        "no hedge of a cell younger than _HEDGE_FLOOR_S",
        "sweep/fleet.py",
        "threshold = max(HEDGE_FACTOR * p95, _HEDGE_FLOOR_S)",
        "threshold = HEDGE_FACTOR * p95",
        _CHAOS + "TestHedging::test_a_brisk_cell_is_never_hedged",
    ),
    Mutant(
        "at most _HEDGE_MAX_COPIES copies of a cell",
        "sweep/fleet.py",
        "if index not in self.rows and len(copies) < _HEDGE_MAX_COPIES",
        "if index not in self.rows",
        _CHAOS + "TestHedging::test_stuck_worker_cell_is_hedged_to_an_idle_slot",
    ),
    # -- sweep/health.py ------------------------------------------------
    Mutant(
        "a handshake ends the failure streak",
        "sweep/health.py",
        "        state = self._worker(address)\n        state.consecutive_failures = 0\n"
        "        state.last_heartbeat = None\n",
        "        state = self._worker(address)\n        state.last_heartbeat = None\n",
        _CHAOS + "TestQuarantine::test_a_respawned_slot_starts_with_a_clean_slate",
    ),
    Mutant(
        "a good row ends the failure streak",
        "sweep/health.py",
        "        state.consecutive_failures = 0\n        state.rows_since_decay += 1\n",
        "        state.rows_since_decay += 1\n",
        _CHAOS + "TestQuarantine::test_a_good_row_ends_the_failure_streak",
    ),
    Mutant(
        "each quarantine lasts twice the one before",
        "sweep/health.py",
        "duration = min(QUARANTINE_BASE_S * (2 ** state.level), QUARANTINE_CAP_S)",
        "duration = QUARANTINE_BASE_S",
        _CHAOS + "TestQuarantine::test_a_repeat_offender_is_benched_longer_each_time",
    ),
    Mutant(
        "DECAY_ROWS good rows forgive one quarantine level",
        "sweep/health.py",
        "DECAY_ROWS = 8",
        "DECAY_ROWS = 10**9",
        _CHAOS + "TestQuarantine::test_good_rows_shorten_the_next_quarantine",
    ),
    # -- sweep/remote.py ------------------------------------------------
    Mutant(
        "a slot ignores SIGINT",
        "sweep/remote.py",
        "    signal.signal(signal.SIGINT, signal.SIG_IGN)\n",
        "",
        _REMOTE + "TestSlotProcess::test_a_ctrl_c_reaching_a_slot_costs_its_cell_nothing",
    ),
    Mutant(
        "a slot closes the sockets it inherits",
        "sweep/remote.py",
        "    for fd in inherited_fds:",
        "    for fd in ():",
        _REMOTE + "TestWorkerLoss::test_a_sigkilled_server_with_a_live_slot_is_noticed_at_once",
    ),
    Mutant(
        "a slot heartbeats from a thread while its cell runs",
        "sweep/remote.py",
        "    threading.Thread(target=heartbeat, daemon=True).start()\n",
        "",
        _REMOTE + "TestSlotProcess::test_a_slot_heartbeats_while_its_cell_runs",
    ),
    Mutant(
        "a re-forked slot's first GET replaces the one its predecessor died asking",
        "sweep/remote.py",
        "                if slot.replaces_asker:",
        "                if False:",
        _REMOTE + "TestWorkerSession::test_an_idle_slot_killed_from_outside_costs_nobody",
    ),
    Mutant(
        "a dead slot's cell is charged as a crash before the loss",
        "sweep/remote.py",
        "    for index in sorted(worker.inflight) if worker else ():",
        "    for index in ():",
        "tests/sweep/test_fleet_props.py::test_a_poisoned_cell_dies_alone_on_local_slots",
    ),
    # -- sweep/runner.py ------------------------------------------------
    Mutant(
        "a cell past its deadline runs once more",
        "sweep/runner.py",
        "TIMEOUT_RETRIES = 1",
        "TIMEOUT_RETRIES = 0",
        "tests/sweep/test_watchdog.py::TestRetryBackoff::test_retry_then_success",
    ),
)


def mutated(mutant: Mutant, src: pathlib.Path) -> str:
    """The text of *mutant*'s file under *src* with the mutant applied;
    :class:`ValueError` unless its old text occurs there exactly once."""
    text = (src / "repro" / mutant.path).read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.path}: old text occurs {found} times, not once")
    return text.replace(mutant.old, mutant.new)


def run(tests, mutant=None) -> tuple:
    """Run *tests* on a copy of ``src``, *mutant* applied if given:
    ``(failed, seconds, what failed)``, the last the first ``file:line:
    error`` pytest reports, else its last lines.  A run past
    :data:`TIMEOUT_S` has failed; :class:`ValueError` when pytest ran no
    test (a usage error, a test not found)."""
    with tempfile.TemporaryDirectory(prefix="fleet-mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (src / "repro" / mutant.path).write_text(mutated(mutant, src))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SWEEP_")}
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
        # Run from the scratch directory, so Hypothesis keeps the failing
        # examples a mutant finds there and not in the tree's database.
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=line", "-p", "no:cacheprovider",
                *(str(ROOT / test) for test in tests)]
        started = time.monotonic()
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S, start_new_session=True)
        except subprocess.TimeoutExpired:
            return True, time.monotonic() - started, f"timed out after {TIMEOUT_S} s"
        lines = (done.stdout + done.stderr).strip().splitlines()
        if done.returncode not in (0, 1):
            raise ValueError(f"pytest exit {done.returncode}: {lines[-1:]}")
        where = [line for line in lines if line.startswith(f"{ROOT}{os.sep}") and ".py:" in line]
        return done.returncode == 1, time.monotonic() - started, "\n".join(where[:1] or lines[-4:])


def problems() -> list:
    """Every mutant that no longer applies, every named test that fails
    on the tree as it is, and every mutant its test does not kill."""
    found = []
    for mutant in MUTANTS:
        try:
            mutated(mutant, ROOT / "src")
        except ValueError as exc:
            found.append(f"{mutant.policy}: {exc}")
    if found:
        return found
    try:
        failed, seconds, what = run(sorted({mutant.test for mutant in MUTANTS}))
    except ValueError as exc:
        return [f"the named tests did not run: {exc}"]
    print(f"named tests on the tree as it is: {'FAILED' if failed else 'pass'} ({seconds:.1f}s)")
    if failed:
        return [f"a named test fails without a mutant: {what}"]

    def one(mutant):
        try:
            killed, seconds, what = run([mutant.test], mutant)
        except ValueError as exc:
            return f"{mutant.policy}: {mutant.test}: {exc}"
        print(f"{'killed' if killed else 'SURVIVED'} {seconds:5.1f}s  {mutant.policy}\n"
              f"    {mutant.test}\n    {what.splitlines()[0] if killed else ''}", flush=True)
        return None if killed else f"{mutant.policy}: survives {mutant.test}"

    with ThreadPoolExecutor(JOBS) as pool:
        return [problem for problem in pool.map(one, MUTANTS) if problem]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run every mutant against its test; fail on a survivor")
    args = parser.parse_args(argv)
    if not args.check:
        for mutant in MUTANTS:
            print(f"{mutant.path:17} {mutant.policy}\n{'':17} {mutant.test}")
        return 0
    started = time.monotonic()
    found = problems()
    for problem in found:
        print(problem)
    print(f"{len(MUTANTS)} mutants, {len(found)} problems, {time.monotonic() - started:.0f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
