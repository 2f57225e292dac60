"""Fleet chaos: the self-healing fleet's failure model, fault by fault.

Almost everything here runs in **virtual time** on ``fleet_sim.py``: the
real ``FleetScheduler`` and real wire bytes against model workers that
are killed, frozen, cut, corrupted and restarted at scripted protocol
events, each scenario asserting its outcome *and* byte-identity with the
serial backend.  Three things keep real sockets and say so: one
SIGKILL-and-restart-on-the-same-port rejoin, the authentication tests
(no TASK is decoded before AUTH verifies) and
``--max-idle``.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.sweep import SweepSpec, run_sweep
from repro.sweep import health, remote
from repro.sweep.fleet import DIAL_TIMEOUT_S, Close, Dial, FleetScheduler
from repro.sweep.remote import WorkerServer, _fresh_nonce, read_frame
from repro.sweep.runner import ExecutorContext
from repro.sweep.spec import SweepError, export_task
from repro.sweep.wire import (
    MAGIC,
    MAX_FRAME,
    MSG_AUTH,
    MSG_BYE,
    MSG_ERROR,
    MSG_GET,
    MSG_HELLO,
    MSG_ROW,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    Refused,
    _json_payload,
    _parse_json,
    answer_welcome,
    encode_frame,
)

from tests.sweep._remote_tasks import ok_task, sleepy_task
from tests.sweep.chaos import ChaosWorker
from tests.sweep.fleet_sim import (
    CRASH_SLOT,
    FleetSim,
    ModelWorker,
    local_slots,
    serial_bytes,
)
from tests.sweep.test_fail_fast import _failing_verdict_task

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _campaign(name, cells, base_seed=21, fn=ok_task, **params):
    spec = SweepSpec(name, base_seed=base_seed)
    for i in range(cells):
        spec.add(f"t{i}", fn, **params)
    return spec


def _pair(**kwargs):
    return ModelWorker("a:1", **kwargs), ModelWorker("b:1", **kwargs)


def _times(fleet, kind, address):
    return [
        when
        for when, action in fleet.actions
        if isinstance(action, kind) and action.address == address
    ]


def _task_times(fleet, address):
    """When each TASK frame was sent to *address*, in order."""
    return sorted(
        when
        for sends in fleet.task_sends().values()
        for when, to in sends
        if to == address
    )


def _kill_and_restart(worker):
    worker.kill(restart_after=0.3)


class TestSansIO:
    def test_scheduler_wire_and_health_import_no_io_and_no_clock(self):
        """What lets every scenario below run in virtual time: the modules
        that decide never import the modules that touch the world."""
        import ast
        import inspect

        from repro.sweep import fleet, health, wire

        for module in (fleet, wire, health):
            imported = set()
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.split(".")[0])
            assert not imported & {
                "socket", "selectors", "time", "os", "threading", "subprocess", "signal"
            }, module.__name__


class TestKillRestartRejoin:
    def test_sigkill_then_restart_rejoins_byte_identical(self):
        """Real processes.  SIGKILL a worker mid-campaign, restart it on
        the same port, and prove (a) the campaign completes, (b) the
        restarted worker *rejoined*, (c) rows are byte-identical to
        serial — at the shipped timing constants: a killed process group
        closes its sockets at once."""
        spec = _campaign("chaos-kill", 20, fn=sleepy_task, sleep_s=0.15)
        serial = run_sweep(spec, backend="serial")
        workers = [
            ChaosWorker(slots=1, extra_pythonpath=REPO_ROOT) for _ in range(2)
        ]
        try:

            def chaos():
                time.sleep(0.5)  # mid-campaign: cells are in flight
                workers[0].kill()
                time.sleep(0.3)
                workers[0].restart()  # same port: the scheduler redials it

            agent = threading.Thread(target=chaos, daemon=True)
            agent.start()
            tcp = run_sweep(
                spec,
                backend="tcp",
                hosts=",".join(w.address for w in workers),
                retries=1,
            )
            agent.join(timeout=30)
            assert tcp.passed, tcp.render()
            assert tcp.canonical_bytes() == serial.canonical_bytes()
            assert tcp.fleet["scheduler"]["rejoins"] >= 1
            assert tcp.fleet["workers"][workers[1].address]["fleet.rows"] >= 1
        finally:
            for worker in workers:
                worker.close()

    def test_kill_restart_loop_under_fire(self):
        """A killer loop SIGKILLs and restarts one worker again and again
        while the campaign runs; rows stay byte-identical to serial."""
        spec = _campaign("chaos-loop", 14, base_seed=5)
        a, b = _pair(service_s=0.2)
        fleet = FleetSim(spec, [a, b], retries=3)
        cycles = []

        def cycle():
            a.kill(restart_after=0.3)
            cycles.append(fleet.now)
            fleet.at(fleet.now + 0.8, cycle)

        fleet.at(0.8, cycle)
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        assert len(cycles) >= 1  # the campaign ran under fire
        assert tcp.fleet["scheduler"]["rejoins"] >= 1
        assert tcp.fleet["workers"]["a:1"]["fleet.rows"] >= 1

    def test_a_worker_that_starts_late_joins_mid_campaign(self):
        """The initial connect and the redial are one path: a host that
        was down at t=0 is dialled again with backoff and serves."""
        spec = _campaign("late", 12)
        a, b = ModelWorker("a:1", up=False), ModelWorker("b:1", service_s=0.5)
        fleet = FleetSim(spec, [a, b])
        fleet.at(1.0, a.start)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        assert tcp.fleet["workers"]["a:1"]["fleet.rows"] >= 1
        assert tcp.fleet["scheduler"]["rejoins"] == 0  # a first join, not a rejoin
        dials = _times(fleet, Dial, "a:1")
        assert dials[0] == 0.0 and len(dials) >= 3  # t=0, then backoff


class TestSuspendResume:
    def test_sigstop_worker_is_lost_then_rejoins(self):
        """SIGSTOP freezes a worker mid-protocol (sockets stay open,
        heartbeats stop): the parent declares it lost at the heartbeat
        timeout — not before — re-queues its cell, and the worker rejoins
        after SIGCONT and serves again."""
        spec = _campaign("chaos-stop", 40, base_seed=9)
        a, b = _pair(service_s=1.0)
        fleet = FleetSim(spec, [a, b], retries=2)
        fleet.at(0.4, lambda: a.freeze(15.0))
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        (lost_at,) = _times(fleet, Close, "a:1")[:1]
        assert 10.0 < lost_at < 11.0  # the 10 s timeout, judged every 0.2 s
        stats = tcp.fleet["workers"]["a:1"]
        assert stats["fleet.failures_loss"] == 1
        assert tcp.fleet["scheduler"]["rejoins"] == 1
        # Dials while it is frozen time out (the kernel accepts, nobody
        # answers); the first one after SIGCONT gets through.
        assert any(lost_at < when < 15.4 for when in _times(fleet, Dial, "a:1"))
        assert any(when > 15.4 for when in _task_times(fleet, "a:1"))


class TestSocketChaos:
    def test_proxy_delay_and_midstream_cut(self):
        """What the socket proxy used to inject: latency below the
        protocol's view, then the link cut in the middle of a frame.  The
        parent re-queues, redials through, and stays byte-identical."""
        spec = _campaign("chaos-proxy", 12, base_seed=13)
        a, b = _pair(service_s=0.2)
        fleet = FleetSim(spec, [a, b], retries=2)

        def slow():
            a.latency_s = 0.05

        def cut():
            a.latency_s = 0.001
            a.cut_next_frame = True

        fleet.at(0.4, slow)
        fleet.at(0.8, cut)
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        assert tcp.fleet["workers"]["a:1"]["fleet.failures_loss"] == 1
        assert tcp.fleet["scheduler"]["rejoins"] == 1
        assert "fleet.failures_loss" not in tcp.fleet["workers"]["b:1"]


class TestHedging:
    def test_stuck_worker_cell_is_hedged_to_an_idle_slot(self):
        """One cell runs 20x longer than the rest (its worker heartbeats
        on, so it is never declared lost).  Once the p95 is known it is
        copied to an idle slot on *another* worker — never the idle slot
        next to it, never a third time — the first row wins, and the
        second — arriving while a long honest cell keeps the campaign
        open — is dropped."""
        spec = _campaign("chaos-hedge", 18, base_seed=17)
        cells = {}

        def service(role):
            def seconds(index):
                if role and index >= 10:
                    cells.setdefault(role, index)  # the first late cell served here
                return {cells.get("stuck"): 2.0, cells.get("long"): 5.0}.get(index, 0.1)

            return seconds

        workers = [ModelWorker(f"{name}:1", slots=3) for name in "abc"]
        for worker, role in zip(workers, ("stuck", "long", None)):
            worker.service_s = service(role)
        fleet = FleetSim(spec, workers)
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        scheduler = tcp.fleet["scheduler"]
        assert scheduler["hedges"] >= 1
        assert scheduler["hedge_duplicates"] >= 1
        original, copy = fleet.task_sends()[cells["stuck"]]  # two, not three
        assert original[1] == "a:1" and copy[1] != "a:1"
        assert copy[0] - original[0] >= 0.2  # not before twice the p95
        assert len(fleet.landed) == 18  # the duplicate never landed

    def test_hedging_shortens_the_makespan(self):
        """What a user sees of hedging: one cell stuck on one worker does
        not hold the campaign open.  Its copy on an idle slot elsewhere
        lands at about the p95, so the campaign ends well before the
        stuck original would (2.1 virtual seconds without hedging)."""
        spec = _campaign("hedge-makespan", 18, base_seed=17)
        stuck = []

        def on_a(index):
            if index >= 10 and not stuck:
                stuck.append(index)  # the first late cell served on a
            return 2.0 if index in stuck else 0.1

        workers = [ModelWorker(f"{name}:1", slots=3) for name in "abc"]
        workers[0].service_s = on_a
        tcp = FleetSim(spec, workers).run()
        assert stuck
        assert tcp.passed, tcp.render()
        assert tcp.wall_seconds < 1.0
        assert tcp.canonical_bytes() == serial_bytes(spec)

    @pytest.mark.parametrize("fault", ["slot-crash", "worker-loss"])
    def test_a_lost_original_leaves_its_running_copy_to_land(self, fault):
        """The same layout with no retry budget.  Cell 10 goes to a:1 and
        is hedged to another worker at twice the p95; then the original
        is lost while the copy still runs (for 1 s, far past the loss):
        its slot crashes 0.5 s in, or a:1 dies at 0.5 s.  The copy still
        holds the cell, so no FAILED row lands: the copy's row does."""
        spec = _campaign("hedge-loss", 18, base_seed=17)
        workers = [ModelWorker(f"{name}:1", slots=3) for name in "abc"]
        for worker, stuck_s in zip(workers, (0.5, 1.0, 1.0)):
            worker.service_s = lambda index, stuck_s=stuck_s: stuck_s if index == 10 else 0.1
        fleet = FleetSim(spec, workers, retries=0)
        if fault == "slot-crash":
            fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", index=10)
        else:
            fleet.at(0.5, workers[0].kill)
        tcp = fleet.run()
        (original_at, original_to), (copy_at, copy_to) = fleet.task_sends()[10][:2]
        assert original_to == "a:1" and copy_to != "a:1"
        assert copy_at < original_at + 0.5  # out before the loss
        assert tcp.passed, tcp.render()
        assert (tcp.rows[10].status, tcp.rows[10].attempts) == ("OK", 1)
        assert tcp.canonical_bytes() == serial_bytes(spec)

    def test_a_cell_is_never_hedged_back_to_where_its_copy_died(self):
        """The same layout with the default retry budget.  Cell 10 goes to
        a:1 and is hedged to another worker; then its slot on a:1 crashes
        0.5 s in.  The copy still runs, and a:1 has idle slots again, but
        no hedge sends the cell back there to crash once more: a:1 gets
        its TASK once, first, and every later one goes elsewhere."""
        spec = _campaign("hedge-crash", 18, base_seed=17)
        workers = [ModelWorker(f"{name}:1", slots=3) for name in "abc"]
        for worker, stuck_s in zip(workers, (0.5, 1.0, 1.0)):
            worker.service_s = lambda index, stuck_s=stuck_s: stuck_s if index == 10 else 0.1
        fleet = FleetSim(spec, workers)
        fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", index=10)
        tcp = fleet.run()
        sends = fleet.task_sends()[10]
        assert [to for _, to in sends].count("a:1") == 1 and sends[0][1] == "a:1", sends
        assert tcp.passed, tcp.render()
        assert (tcp.rows[10].status, tcp.rows[10].attempts) == ("OK", 1)
        assert tcp.canonical_bytes() == serial_bytes(spec)

    def test_a_brisk_cell_is_never_hedged(self):
        """Cells of 10 ms make a p95 of about 12 ms, so twice it is a
        few tens of ms and every 50 ms cell would look a straggler.  No
        cell is copied before it has run 0.1 s: each TASK goes out once."""
        spec = _campaign("brisk", 20)
        workers = [
            ModelWorker(f"{name}:1", slots=2, service_s=lambda index: 0.05 if index % 10 == 9 else 0.01)
            for name in "ab"
        ]
        fleet = FleetSim(spec, workers)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        assert [len(sends) for sends in fleet.task_sends().values()] == [1] * 20


class TestRedialBackoff:
    def test_redials_to_a_frozen_host_back_off(self):
        """A dial to a frozen host holds the parent's whole loop for the
        dial timeout: the kernel accepts, nobody answers HELLO.  b:1
        freezes for 30 s early in a 240-cell campaign that a:1 alone
        finishes in 12 s.  Redialling b:1 with a backoff that doubles to
        5 s keeps the parent mostly free, and the campaign ends at 16.0
        virtual seconds; redialling at every tick would block it nearly
        all the time, until b:1 thaws (30.8 s)."""
        spec = _campaign("frozen-host", 240, base_seed=3)
        a, b = _pair(slots=2)
        fleet = FleetSim(spec, [a, b])
        fleet.at(0.3, lambda: b.freeze(30.0))
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.wall_seconds < 20.0
        assert tcp.canonical_bytes() == serial_bytes(spec)


class TestLossForgiveness:
    def test_rejoin_refunds_one_charged_loss(self):
        """A worker dies holding a cell and rejoins healthy: the loss it
        charged is refunded, so the flap did not burn the cell's budget."""
        spec = _campaign("pardon", 6)
        a = ModelWorker("a:1")
        fleet = FleetSim(spec, [a], retries=1)
        fleet.on_task(_kill_and_restart, nth=2)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        assert tcp.fleet["scheduler"]["forgiven_losses"] == 1
        assert all(row.attempts == 1 for row in tcp.rows)

    def test_each_worker_forgives_a_cell_at_most_once(self):
        """An assassin cell that keeps killing the same rejoining worker
        must still burn the budget: one flap, one pardon."""
        spec = _campaign("assassin", 3)
        fleet = FleetSim(spec, [ModelWorker("a:1")], retries=1)
        fleet.on_task(_kill_and_restart, index=0)
        tcp = fleet.run()
        assassin = tcp.rows[0]
        assert assassin.status == "FAILED"
        assert assassin.attempts == 2
        # retries + 1 executions, plus the one the pardon bought.
        assert len(fleet.task_sends()[0]) == 3
        assert tcp.fleet["scheduler"]["forgiven_losses"] == 1
        assert [row.ok for row in tcp.rows[1:]] == [True, True]

    def test_landed_rows_are_never_refunded(self):
        """With no retry budget the first loss lands the FAILED row; the
        rejoin that follows pardons nothing."""
        spec = _campaign("landed", 3)
        fleet = FleetSim(spec, [ModelWorker("a:1")], retries=0)
        fleet.on_task(_kill_and_restart, index=0)
        tcp = fleet.run()
        assert tcp.rows[0].status == "FAILED" and tcp.rows[0].attempts == 1
        assert tcp.fleet["scheduler"]["rejoins"] == 1
        assert tcp.fleet["scheduler"]["forgiven_losses"] == 0


class TestErrorFrames:
    def test_error_frame_crash_is_never_forgiven_on_rejoin(self):
        """A cell crashes its slot wherever it runs (ERROR frames), and
        once the worker holding it is killed instead.  The rejoin refunds
        that one connection loss and nothing else: the slot crashes the
        worker itself reported stay charged — the cell is the prime
        suspect."""
        spec = _campaign("slot-crash", 8)
        fleet = FleetSim(spec, [ModelWorker("a:1")], retries=2)
        fleet.on_task(lambda worker: CRASH_SLOT, index=0)
        fleet.on_task(_kill_and_restart, index=0, nth=2)
        tcp = fleet.run()
        crashed = tcp.rows[0]
        assert crashed.status == "FAILED"
        assert crashed.error == "worker died: connection lost"
        assert crashed.attempts == 3
        assert "reported: worker died: slot process died" in crashed.error_detail
        assert tcp.fleet["scheduler"]["rejoins"] == 1
        assert tcp.fleet["scheduler"]["forgiven_losses"] == 1
        # crash, kill (pardoned), crash, crash: a pardoned ERROR would
        # have bought a fifth execution.
        assert len(fleet.task_sends()[0]) == 4
        healthy = run_sweep(spec, backend="serial").rows[1:]
        assert [row.canonical() for row in tcp.rows[1:]] == [
            row.canonical() for row in healthy
        ]


    def test_a_flap_between_two_crashes_pardons_neither(self):
        """The same rule, event by event on the bare scheduler: the
        worker that reported the crash flaps while holding nothing, and
        its rejoin finds no connection loss to refund."""
        landed = []
        tasks = _campaign("crash", 1).tasks()
        ctx = ExecutorContext(
            workers=0, retries=1, fail_fast=False, task_timeout=None, on_row=landed.append,
            exports={task.index: export_task(task)[0] for task in tasks},
        )
        scheduler = FleetScheduler(tasks, ctx, ["a:1"])
        get = encode_frame(MSG_GET, b"{}")
        crash = encode_frame(
            MSG_ERROR, _json_payload({"index": 0, "error": "worker died: X"})
        )
        assert scheduler.tick(0.0) == [Dial("a:1", DIAL_TIMEOUT_S)]
        assert scheduler.connected("a:1", 1, 0.0) == []
        (task,) = scheduler.received("a:1", get, 0.1)  # cell 0 goes out
        assert scheduler.received("a:1", crash, 0.2) == []  # charged; nobody idle
        assert scheduler.closed("a:1", "connection closed", 0.3) == []
        assert scheduler.tick(1.0) == [Dial("a:1", DIAL_TIMEOUT_S)]
        scheduler.connected("a:1", 1, 1.0)
        assert scheduler.stats["rejoins"] == 1
        assert scheduler.stats["forgiven_losses"] == 0
        assert scheduler.received("a:1", get, 1.1) == [task]  # cell 0 again
        scheduler.received("a:1", crash, 1.2)  # retries=1: the budget is spent
        assert [(row.status, row.attempts) for row in landed] == [("FAILED", 2)]
        assert scheduler.done


class TestUnshippableTask:
    """A cell with no JSON encoding is refused before anything happens:
    no journal byte, no dial, no fork, and a SweepError naming the cell
    and what in it cannot be encoded."""

    def _spec(self):
        def closure(task):  # not found again by module:qualname
            return {"index": task.index}

        spec = _campaign("unshippable", 6)
        spec.add("closure", closure)
        return spec

    @pytest.mark.parametrize("backend", ["tcp", "parallel"])
    def test_refused_before_any_dial(self, backend, monkeypatch):
        def no_dial(self, action):
            raise AssertionError(f"dialled {action}")

        monkeypatch.setattr(remote.TcpExecutor, "_dial", no_dial)
        monkeypatch.setattr(remote.LocalExecutor, "_dial", no_dial)
        hosts = "127.0.0.1:9" if backend == "tcp" else None
        with pytest.raises(SweepError) as failure:
            run_sweep(self._spec(), backend=backend, workers=2, hosts=hosts)
        message = str(failure.value)
        assert "task 6 ('closure') cannot be encoded" in message
        assert "_spec.<locals>.closure" in message

    def test_refused_before_the_journal_exists(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SweepError, match="task 6 .* cannot be encoded"):
            run_sweep(self._spec(), backend="parallel", workers=2, journal=str(journal))
        assert not journal.exists()

    def test_a_param_is_named_by_its_path(self):
        tasks = _campaign("unshippable-param", 2).tasks()
        tasks[1].params["knobs"] = {"rates": (1, object())}
        with pytest.raises(SweepError, match=r"task 1 .*params\.knobs\.rates\[1\]: .* object"):
            run_sweep(tasks, backend="parallel", workers=2)

    def test_fail_fast_stops_dispatching_at_it(self):
        """``fail_fast`` or not, the cell stops the campaign before it
        starts: the scheduler never sees a cell it could not send."""
        spec = SweepSpec("unshippable-first", base_seed=1)

        def closure(task):
            return {}

        spec.add("closure", closure)
        for i in range(4):
            spec.add(f"t{i}", ok_task)
        with pytest.raises(SweepError, match="task 0 .* cannot be encoded"):
            FleetSim(spec, local_slots(2), fail_fast=True, local=True)
        with pytest.raises(SweepError, match="task 0 .* cannot be encoded"):
            run_sweep(spec, backend="parallel", workers=2, fail_fast=True)

    def test_serial_still_runs_it(self):
        outcome = run_sweep(self._spec(), backend="serial")
        assert outcome.passed and outcome.rows[6].payload == {"index": 6}


class TestQuarantine:
    def test_three_consecutive_failures_stop_the_redials_until_expiry(self):
        """Two slot crashes and then a dead connection, no good row in
        between: the third consecutive failure quarantines the worker,
        and it is not redialled for the quarantine second although the
        ordinary backoff (0.25 s) fell due long before."""
        spec = _campaign("flapper", 30)
        a, b = ModelWorker("a:1"), ModelWorker("b:1", service_s=0.3)
        fleet = FleetSim(spec, [a, b], retries=5)
        fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", nth=1)
        fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", nth=2)
        fleet.on_task(lambda worker: worker.kill(restart_after=0.05), worker="a:1", nth=3)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        assert tcp.fleet["workers"]["a:1"]["fleet.quarantines"] == 1
        killed_at = _task_times(fleet, "a:1")[2]
        redials = [when for when in _times(fleet, Dial, "a:1") if when > killed_at]
        assert redials and killed_at + 1.0 <= redials[0] < killed_at + 1.5
        assert tcp.fleet["scheduler"]["rejoins"] == 1  # and then it is let back

    def test_a_connected_but_quarantined_worker_gets_no_work(self):
        """Three slot crashes in a row bench a worker that is still
        connected, still heartbeating and still asking for work."""
        spec = _campaign("benched", 40)
        a, b = ModelWorker("a:1", service_s=0.05), ModelWorker("b:1", service_s=0.2)
        fleet = FleetSim(spec, [a, b], retries=3)
        for nth in (1, 2, 3):
            fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", nth=nth)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        to_a = _task_times(fleet, "a:1")
        assert 1.0 <= to_a[3] - to_a[2] < 1.5  # idle and asking, yet benched 1 s
        assert to_a[2] - to_a[0] < 0.5  # before that it was fed at once
        assert len(_times(fleet, Close, "a:1")) == 1  # only the final goodbye
        assert tcp.fleet["workers"]["a:1"]["fleet.quarantines"] == 1

    @staticmethod
    def _sick_host_failed_rows(cells, slots):
        """Every TASK on a:1 crashes its slot 10 ms in; b:1 is healthy."""
        spec = _campaign("sick-host", cells)
        sick = ModelWorker("a:1", slots=slots, service_s=0.01)
        fleet = FleetSim(spec, [sick, ModelWorker("b:1", slots=slots)], retries=1)
        fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1")
        return sum(row.status == "FAILED" for row in fleet.run().rows)

    @pytest.mark.parametrize("cells, slots", [(20, 1), (40, 4)])
    def test_quarantine_contains_a_sick_host(self, monkeypatch, cells, slots):
        """What quarantine buys: a host whose every slot crashes keeps
        asking for work and fails each cell it gets in 10 ms.  Benched
        after three crashes in a row, it costs at most two cells both
        their attempts; with the threshold lifted it keeps winning the
        race for cells, and many more run out of retries on it (16 of
        20 and 32 of 40 in these layouts)."""
        assert self._sick_host_failed_rows(cells, slots) <= 2
        monkeypatch.setattr(health, "FAILURE_THRESHOLD", 10**9)
        assert self._sick_host_failed_rows(cells, slots) >= cells // 2

    @pytest.mark.parametrize("cells, slots", [(200, 1), (400, 4)])
    def test_a_repeat_offender_is_benched_longer_each_time(self, cells, slots):
        """Escalation: each quarantine of the sick host lasts twice the
        one before, so over a long campaign it is back in the race for
        cells ever more rarely: 5 of 200 and 4 of 400 cells fail.  Benched
        for the base second every time, it would fail 17 and 18."""
        assert self._sick_host_failed_rows(cells, slots) <= 8

    @staticmethod
    def _fast_host_with_crashes(cells, crashes):
        """a:1 serves a cell in 0.05 s, b:1 in 0.2 s; a:1's slot crashes
        on its TASKs numbered *crashes*.  Returns the outcome and the gaps
        between consecutive TASKs sent to a:1."""
        spec = _campaign("fast-host", cells)
        a, b = ModelWorker("a:1", service_s=0.05), ModelWorker("b:1", service_s=0.2)
        fleet = FleetSim(spec, [a, b], retries=3)
        for nth in crashes:
            fleet.on_task(lambda worker: CRASH_SLOT, worker="a:1", nth=nth)
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        to_a = _task_times(fleet, "a:1")
        return tcp, [later - earlier for earlier, later in zip(to_a, to_a[1:])]

    def test_good_rows_shorten_the_next_quarantine(self):
        """Decay: a:1 is benched after its first three crashes, then
        serves ten good rows, then crashes three times again.  Eight good
        rows forgave the first offence, so the second bench lasts the base
        second again (1.18 s between TASKs, not 2.18 s), and the campaign
        ends at 5.29 virtual seconds, not 6.08."""
        tcp, gaps = self._fast_host_with_crashes(80, (1, 2, 3, 14, 15, 16))
        assert 1.0 <= gaps[15] < 1.5  # after its 16th TASK, the second crash streak
        assert tcp.wall_seconds < 5.7

    def test_a_respawned_slot_starts_with_a_clean_slate(self):
        """``parallel``: a poisoned cell kills its one slot on each of its
        four attempts.  A death is two strikes (the crash, the loss) and a
        fresh process's handshake clears them, so each death costs one
        redial backoff and the campaign ends at 1.9 virtual seconds; a
        slot that kept its predecessors' strikes would be benched after
        the second death, and the campaign would end at 4.5."""
        spec = _campaign("poisoned", 4)
        fleet = FleetSim(spec, local_slots(1), retries=3, local=True)
        fleet.on_task(lambda slot: slot.kill(), index=0)
        outcome = fleet.run()
        assert [(row.status, row.attempts) for row in outcome.rows] == [
            ("FAILED", 4), ("OK", 1), ("OK", 1), ("OK", 1),
        ]
        assert outcome.wall_seconds < 2.5

    def test_a_good_row_ends_the_failure_streak(self):
        """Two crashes, three good rows, one more crash: three crashes,
        but never three in a row, so a:1 is never benched (its TASKs are
        at most 0.05 s apart; counted across the good rows, it would sit
        out 1.14 s)."""
        tcp, gaps = self._fast_host_with_crashes(40, (1, 2, 6))
        assert max(gaps) < 0.5


class TestFailFast:
    def test_abort_drains_in_flight_cells_and_sends_nothing_new(self):
        spec = SweepSpec("fail-fast", base_seed=1)
        for i in range(8):
            spec.add(f"t{i}", _failing_verdict_task if i == 1 else ok_task)
        a, b = _pair(slots=2, service_s=lambda index: 0.05 if index == 1 else 0.3)
        fleet = FleetSim(spec, [a, b], fail_fast=True)
        tcp = fleet.run()
        assert tcp.aborted and not tcp.passed
        # The four cells in flight when the verdict landed all kept their
        # rows; nothing was dispatched after it.
        assert [row.name for row in tcp.rows] == ["t0", "t1", "t2", "t3"]
        assert sorted(fleet.task_sends()) == [0, 1, 2, 3]
        assert tcp.wall_seconds < 0.5


class TestHostileBytes:
    """Whatever a worker sends, only that worker is lost."""

    def _run(self, sabotage, cells=12):
        spec = _campaign("hostile", cells)
        a, b = _pair(service_s=0.2)
        fleet = FleetSim(spec, [a, b], retries=2)
        fleet.at(0.5, lambda: sabotage(a))
        tcp = fleet.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        assert len(fleet.landed) == cells  # exactly one row per task
        assert "fleet.failures_loss" not in tcp.fleet["workers"]["b:1"]
        return tcp.fleet["workers"]["a:1"].get("fleet.failures_loss", 0), tcp

    def test_garbage_bytes_lose_only_that_worker(self):
        losses, tcp = self._run(lambda a: a.inject(b"GET / HTTP/1.1\r\n\r\n"))
        assert losses == 1 and tcp.fleet["scheduler"]["rejoins"] == 1

    def test_oversized_length_prefix_loses_only_that_worker(self):
        header = struct.pack("!4sBI", MAGIC, MSG_ROW, MAX_FRAME + 1)
        losses, _tcp = self._run(lambda a: a.inject(header))
        assert losses == 1

    def test_bad_crc_loses_only_that_worker(self):
        def corrupt_next_row(a):
            a.corrupt_rows = 1

        losses, _tcp = self._run(corrupt_next_row)
        assert losses == 1

    def test_out_of_grammar_frames_lose_only_that_worker(self):
        row = run_sweep(_campaign("hostile", 1), backend="serial").rows[0].to_record()
        for frame in (
            encode_frame(MSG_TASK, b"parents send these"),
            encode_frame(MSG_ROW, b"[1, 2, 3]"),
            encode_frame(MSG_ROW, _json_payload({"index": "zero"})),
            encode_frame(MSG_ROW, _json_payload(dict(row, index=float("inf")))),
            encode_frame(MSG_ROW, _json_payload(dict(row, wall_seconds=float("nan")))),
            encode_frame(MSG_ERROR, b"{}"),
            encode_frame(MSG_ERROR, b'{"index": [0]}'),
            encode_frame(0, b""),
        ):
            losses, _tcp = self._run(lambda a, frame=frame: a.inject(frame))
            assert losses == 1

    def test_unsolicited_and_duplicate_rows_are_dropped(self):
        def lie(a):
            a.duplicate_rows = True
            stolen = run_sweep(_campaign("hostile", 12), backend="serial").rows[11]
            a.inject(encode_frame(MSG_ROW, _json_payload(stolen.to_record())))

        losses, tcp = self._run(lie)
        assert losses == 0  # dropped, not punished
        assert tcp.fleet["scheduler"]["hedge_duplicates"] == 0


class TestRefusal:
    def test_a_refused_host_is_written_off_and_the_rest_carry_on(self):
        spec = _campaign("refused", 6)
        a, b = ModelWorker("a:1", secret="other"), ModelWorker("b:1")
        fleet = FleetSim(spec, [a, b])
        tcp = fleet.run()
        assert tcp.passed and tcp.canonical_bytes() == serial_bytes(spec)
        assert _times(fleet, Dial, "a:1") == [0.0]  # never redialled

    @pytest.mark.parametrize(
        "worker, message",
        [
            (dict(secret="other"), "authentication"),
            (dict(version=1), "version mismatch"),
            (dict(refuse="this worker is retiring"), "retiring"),
        ],
    )
    def test_a_fleet_of_refusals_fails_at_once_with_the_reason(self, worker, message):
        """Refusals are typed (``wire.Refused``), not recognised by their
        wording: a BYE that mentions neither authentication nor versions
        is just as final."""
        fleet = FleetSim(_campaign("refused", 2), [ModelWorker("a:1", **worker)])
        with pytest.raises(SweepError, match=message) as failure:
            fleet.run()
        assert "could not reach any worker: a:1: " in str(failure.value)
        assert fleet.now < 1.0  # no ten-second wait for a rejoin that cannot come
        assert len(_times(fleet, Dial, "a:1")) == 1


# ---------------------------------------------------------------------------
# Authentication: refused before any TASK is decoded (real sockets)
# ---------------------------------------------------------------------------


def _spy_on_decoder(monkeypatch, tmp_path):
    """Log every TASK decode to a file: they run in forked slot processes,
    whose appends to a list here would never be seen."""
    log = tmp_path / "decoded"

    def spy(payload, real=remote.decode_task):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("decode_task\n")
        return real(payload)

    monkeypatch.setattr(remote, "decode_task", spy)
    return log


def _hello(version=PROTOCOL_VERSION):
    return encode_frame(
        MSG_HELLO, _json_payload({"version": version, "nonce": _fresh_nonce()})
    )


class TestAuthRejection:
    def _serve(self, server):
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return thread

    def test_wrong_secret_parent_is_a_clear_sweep_error(self, monkeypatch, tmp_path):
        """Parent and worker disagree on the secret: the campaign fails
        with an error naming authentication, and the worker never decodes
        a TASK."""
        decoded = _spy_on_decoder(monkeypatch, tmp_path)
        server = WorkerServer(slots=1, secret="alpha")
        self._serve(server)
        try:
            spec = SweepSpec("badsecret", base_seed=2).add("a", ok_task)
            with pytest.raises(SweepError, match="authentication"):
                run_sweep(
                    spec,
                    backend="tcp",
                    hosts=[(server.host, server.port)],
                    secret="beta",
                )
            assert not decoded.exists()
        finally:
            server.stop()

    def test_missing_secret_parent_is_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_SECRET", raising=False)
        server = WorkerServer(slots=1, secret="alpha")
        self._serve(server)
        try:
            spec = SweepSpec("nosecret", base_seed=2).add("a", ok_task)
            with pytest.raises(SweepError, match="authentication"):
                run_sweep(spec, backend="tcp", hosts=[(server.host, server.port)])
        finally:
            server.stop()

    def test_matching_secret_serves_the_campaign(self, monkeypatch, tmp_path):
        decoded = _spy_on_decoder(monkeypatch, tmp_path)  # the spy's control
        server = WorkerServer(slots=2, secret="s3cret")
        self._serve(server)
        try:
            spec = SweepSpec("goodsecret", base_seed=2)
            for i in range(4):
                spec.add(f"t{i}", ok_task)
            outcome = run_sweep(
                spec,
                backend="tcp",
                hosts=[(server.host, server.port)],
                secret="s3cret",
            )
            assert outcome.passed
            assert server.auth_failures == 0
            assert decoded.read_text().split() == ["decode_task"] * 4
        finally:
            server.stop()

    def test_task_frame_before_auth_is_never_decoded(
        self, monkeypatch, tmp_path
    ):
        """A raw peer that completes HELLO/WELCOME and then ships a TASK
        without proving the secret gets BYE — and the TASK, which names
        ``os:system``, is never decoded."""
        decoded = _spy_on_decoder(monkeypatch, tmp_path)
        server = WorkerServer(slots=1, secret="s3cret")
        self._serve(server)
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            sock.sendall(_hello())
            mtype, _payload = read_frame(sock)
            assert mtype == MSG_WELCOME
            poisoned = {"fn": "os:system", "index": 0, "name": "x", "params": {}, "seed": 0}
            sock.sendall(encode_frame(MSG_TASK, _json_payload(poisoned)))
            mtype, payload = read_frame(sock)
            assert mtype == MSG_BYE
            assert "authentication required" in _parse_json(payload, "BYE")["error"]
            assert not decoded.exists()
            assert server.auth_failures == 1
        finally:
            sock.close()
            server.stop()

    def test_bad_auth_proof_is_refused(self):
        server = WorkerServer(slots=1, secret="s3cret")
        self._serve(server)
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            sock.sendall(_hello())
            mtype, _payload = read_frame(sock)
            assert mtype == MSG_WELCOME
            sock.sendall(
                encode_frame(MSG_AUTH, _json_payload({"proof": "forged"}))
            )
            mtype, payload = read_frame(sock)
            assert mtype == MSG_BYE
            error = _parse_json(payload, "BYE")["error"]
            assert "authentication failed" in error
            assert "REPRO_SWEEP_SECRET" in error  # the fix is named
        finally:
            sock.close()
            server.stop()

    @pytest.mark.parametrize("task_timeout", [[1], "x", -1, {"timeout": 1}])
    def test_a_malformed_hello_task_timeout_is_refused_not_fatal(self, task_timeout):
        """Before AUTH, too: a HELLO whose task_timeout is not a positive
        number or null gets BYE, and the worker serves the next parent."""
        server = WorkerServer(slots=1)
        thread = self._serve(server)
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            hello = {
                "version": PROTOCOL_VERSION,
                "nonce": _fresh_nonce(),
                "task_timeout": task_timeout,
            }
            sock.sendall(encode_frame(MSG_HELLO, _json_payload(hello)))
            mtype, payload = read_frame(sock)
            assert mtype == MSG_BYE
            assert "malformed task_timeout" in _parse_json(payload, "BYE")["error"]
            spec = SweepSpec("after", base_seed=2).add("a", ok_task)
            assert run_sweep(spec, backend="tcp", hosts=[(server.host, server.port)]).passed
            assert thread.is_alive()
        finally:
            sock.close()
            server.stop()

    def test_v1_peer_is_rejected_with_version_mismatch(self):
        """An old (pre-auth) parent sends HELLO without a nonce at
        version 1: refused with a message naming both versions."""
        server = WorkerServer(slots=1)
        self._serve(server)
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            sock.sendall(
                encode_frame(MSG_HELLO, _json_payload({"version": 1}))
            )
            mtype, payload = read_frame(sock)
            assert mtype == MSG_BYE
            error = _parse_json(payload, "BYE")["error"]
            assert "version mismatch" in error
            assert "speaks 1" in error and "speaks 5" in error
        finally:
            sock.close()
            server.stop()

    def _refused_both_ways(self, old):
        """A parent of protocol *old* gets BYE from this worker, and a
        worker of *old* sends a WELCOME that is a refusal for this parent:
        each error names both versions."""
        server = WorkerServer(slots=1)
        self._serve(server)
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            sock.sendall(_hello(version=old))
            mtype, payload = read_frame(sock)
            assert mtype == MSG_BYE
            error = _parse_json(payload, "BYE")["error"]
            assert f"parent speaks {old}" in error and "worker speaks 5" in error
        finally:
            sock.close()
            server.stop()
        welcome = {"version": old, "slots": 1, "nonce": _fresh_nonce(), "proof": ""}
        with pytest.raises(Refused, match=f"worker speaks {old}, parent speaks 5"):
            answer_welcome(MSG_WELCOME, _json_payload(welcome), None, _fresh_nonce())

    def test_v2_peers_are_refused_both_ways(self):
        """v2 pickled its cells."""
        self._refused_both_ways(2)

    def test_v3_peers_are_refused_both_ways(self):
        """v3 sent the watchdog as a {timeout, retries, backoff} object."""
        self._refused_both_ways(3)

    def test_v4_peers_are_refused_both_ways(self):
        """v4 named each program by a content hash and pushed it in a
        PROGRAM frame, which this protocol no longer has."""
        self._refused_both_ways(4)


# ---------------------------------------------------------------------------
# --max-idle: orphaned workers exit on their own (real sockets, real clock)
# ---------------------------------------------------------------------------


class TestMaxIdle:
    def test_idle_worker_exits_on_its_own(self):
        server = WorkerServer(slots=1, max_idle=0.4)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert server.idle_exit

    def test_a_campaign_resets_the_idle_clock(self):
        server = WorkerServer(slots=1, max_idle=1.5)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            time.sleep(0.8)  # idle, but under the limit
            spec = SweepSpec("reset", base_seed=4).add("a", ok_task)
            outcome = run_sweep(
                spec, backend="tcp", hosts=[(server.host, server.port)]
            )
            assert outcome.passed
            assert thread.is_alive()  # the campaign reset the clock
        finally:
            server.stop()
            thread.join(timeout=15)

    def test_invalid_max_idle_is_sweep_error(self):
        with pytest.raises(SweepError, match="max_idle"):
            WorkerServer(slots=1, max_idle=0)

    def test_cli_flag_exits_and_reports(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--max-idle",
                "0.5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        try:
            out, err = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
        assert process.returncode == 0, err
        assert "LISTENING" in out
        assert "idle limit reached" in out
