"""Backend tests: the serial/parallel differential and crash isolation."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.scripts import (
    canonical_node_table,
    rether_failover_script,
    tcp_congestion_script,
)
from repro.sweep import (
    SweepError,
    SweepSpec,
    default_backend,
    default_hosts,
    default_workers,
    resolve_secret,
    run_script_task,
    run_sweep,
)
from repro.sweep import runner
from repro.sweep.remote import WorkerServer
from tests.sweep.conftest import row_named


def _ok_task(task):
    return {"index": task.index, "seed": task.seed}


def _raising_task(task):
    raise ValueError(f"boom in {task.name}")


def _dying_task(task):
    os._exit(13)  # hard worker death: no exception, no cleanup


def _note_pid(task):
    """One file per execution, named for the process that ran it."""
    stamp = f"{task.index}-{os.getpid()}-{time.monotonic_ns()}"
    open(os.path.join(task.param("pids"), stamp), "w").close()


def _counted_dying_task(task):
    _note_pid(task)
    os._exit(13)


def _pid_task(task):
    _note_pid(task)
    time.sleep(task.param("sleep_s", 0.0))
    return {"index": task.index, "passed": task.param("passed", True)}


def _noted_pids(directory, index=None):
    """The pid of every execution noted in *directory* (of cell *index*)."""
    notes = [name.split("-") for name in os.listdir(directory)]
    return [int(pid) for cell, pid, _ in notes if index in (None, int(cell))]


def _gone(pid):
    """The process has exited (reaped, or a zombie nobody reaps)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def mixed_campaign() -> SweepSpec:
    """The acceptance campaign: >= 12 tasks mixing the fig5 and fig6
    scenarios, several seeds and control-loss rates."""
    fig5 = tcp_congestion_script(canonical_node_table(2))
    fig6 = rether_failover_script(canonical_node_table(4))
    spec = SweepSpec("differential", base_seed=11)
    for seed in (0, 1, 2, 3):
        for loss in (0.0, 0.1):
            spec.add(
                f"fig5/s{seed}/l{loss:g}",
                run_script_task,
                script=fig5,
                seed=seed,
                control_loss={"node2": loss} if loss else {},
                workload={"kind": "tcp_bulk", "bytes": 32 * 1024},
            )
    spec.add("fig5/hub", run_script_task, script=fig5, medium="hub",
             workload={"kind": "tcp_bulk", "bytes": 32 * 1024})
    spec.add("fig5/derived-seed", run_script_task, script=fig5,
             workload={"kind": "tcp_bulk", "bytes": 32 * 1024})
    for seed in (5, 6):
        spec.add(
            f"fig6/s{seed}",
            run_script_task,
            script=fig6,
            seed=seed,
            medium="bus",
            rether=True,
            workload={"kind": "tcp_feed"},
            max_time_ns=30_000_000_000,
        )
    return spec


class TestWorkloadEventLabels:
    @pytest.mark.parametrize(
        "params",
        [
            dict(script="fig6", medium="bus", rether=True, workload={"kind": "tcp_feed"},
                 max_time_ns=30_000_000_000),
            dict(script="fig5", workload={"kind": "udp_probes", "count": 20}),
        ],
        ids=["tcp_feed", "udp_probes"],
    )
    def test_every_fired_event_has_a_label(self, params, monkeypatch):
        """Per-label attribution of host time sees the workload's own events."""
        from repro.sim.simulator import Simulator

        fired = []
        original_init = Simulator.__init__

        def init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            sim.add_trace_hook(lambda handle: fired.append(handle.label))

        monkeypatch.setattr(Simulator, "__init__", init)
        scripts = {
            "fig5": tcp_congestion_script(canonical_node_table(2)),
            "fig6": rether_failover_script(canonical_node_table(4)),
        }
        spec = SweepSpec("labels", base_seed=1)
        spec.add("cell", run_script_task, **{**params, "script": scripts[params["script"]]})
        outcome = run_sweep(spec, backend="serial")
        assert outcome.rows[0].ok, outcome.render()
        workload_events = [label for label in fired if label.startswith("workload:")]
        assert fired and workload_events
        assert "" not in fired


class TestDifferential:
    def test_serial_and_parallel_merge_byte_identical(self):
        """The tentpole guarantee: a >=12-task campaign mixing scenarios,
        seeds and loss rates merges to byte-identical rows on the serial
        reference backend and on >=2 parallel slot processes."""
        spec = mixed_campaign()
        assert len(spec.tasks()) >= 12
        serial = run_sweep(spec, backend="serial")
        parallel = run_sweep(spec, backend="parallel", workers=2)
        assert serial.backend == "serial" and serial.workers == 1
        assert parallel.workers == 2
        assert all(row.ok for row in serial.rows), serial.render()
        assert serial.canonical_bytes() == parallel.canonical_bytes()

    def test_rows_merge_in_task_order(self):
        spec = SweepSpec("order", base_seed=3)
        for i in range(8):
            spec.add(f"t{i}", _ok_task)
        outcome = run_sweep(spec, backend="parallel", workers=2)
        assert [row.name for row in outcome.rows] == [f"t{i}" for i in range(8)]
        assert [row.payload["index"] for row in outcome.rows] == list(range(8))

    def test_derived_seed_reaches_the_task(self):
        spec = SweepSpec("seeds", base_seed=21).add("a", _ok_task)
        outcome = run_sweep(spec, backend="serial")
        assert outcome.rows[0].payload["seed"] == outcome.rows[0].seed


class TestCanonicalPayload:
    def test_summary_dict_keys_are_sorted(self):
        """Payload dicts must not leak script declaration order: fig5
        declares SYNACK before ACK and CanTx before CCNT, so an
        insertion-ordered summary would fail this."""
        fig5 = tcp_congestion_script(canonical_node_table(2))
        spec = SweepSpec("canon", base_seed=11).add(
            "fig5", run_script_task, script=fig5,
            workload={"kind": "tcp_bulk", "bytes": 32 * 1024},
        )
        payload = run_sweep(spec, backend="serial").rows[0].payload
        counters = payload["final_counters"]
        assert list(counters) == sorted(counters)
        assert "SYNACK" in counters  # the fig5 set really was exercised
        for node, per_node in payload["counters"].items():
            assert list(per_node) == sorted(per_node), node
        for node, stats in payload["engine_stats"].items():
            assert list(stats) == sorted(stats), node


class TestFailureRows:
    def test_exception_becomes_deterministic_failed_row(self):
        spec = SweepSpec("fail").add("bad", _raising_task).add("good", _ok_task)
        serial = run_sweep(spec, backend="serial")
        parallel = run_sweep(spec, backend="parallel", workers=2)
        bad = serial.rows[0]
        assert not bad.ok
        assert bad.error == "ValueError: boom in bad"
        assert "Traceback" in bad.error_detail
        assert serial.rows[1].ok
        assert serial.canonical_bytes() == parallel.canonical_bytes()
        assert not serial.passed and serial.failures == [bad]

    def test_failed_scenario_payload_counts_as_failure(self):
        """A task that *runs* but whose scenario verdict is FAIL still
        produces an OK row — campaign health is `outcome.passed`."""
        # fig6 expects its STOP rule to fire; without the Rether ring there
        # is no token traffic, so the scenario verdict is FAIL.
        fig6 = rether_failover_script(canonical_node_table(4))
        spec = SweepSpec("verdict").add(
            "tokenless", run_script_task, script=fig6, workload={"kind": "none"},
            max_time_ns=2_000_000_000,
        )
        outcome = run_sweep(spec, backend="serial")
        row = outcome.rows[0]
        assert row.ok  # the simulation itself completed
        assert row.payload["passed"] is False  # STOP never fired
        assert not outcome.passed


def _nan_task(task):
    return {"index": task.index, "goodput": [1.5, float("nan")], "passed": True}


class TestStrictJson:
    def test_a_nan_payload_is_the_same_failed_row_everywhere(self, tmp_path):
        """Rejected where the payload is made — in ``execute_task``, so on
        every backend alike — and therefore never in a ROW frame, the
        journal, the cache or ``canonical_bytes()``."""
        from tests.sweep.conftest import strict_loads
        from tests.sweep.fleet_sim import FleetSim, ModelWorker

        spec = SweepSpec("nan", base_seed=4)
        spec.add("fine", _ok_task).add("nan", _nan_task).add("fine2", _ok_task)
        journal, cache = str(tmp_path / "j.jsonl"), str(tmp_path / "cache")
        outcomes = [
            run_sweep(spec, backend="serial"),
            run_sweep(spec, backend="parallel", workers=2),
            FleetSim(spec, [ModelWorker("a:1"), ModelWorker("b:1")]).run(),
            run_sweep(spec, backend="serial", journal=journal, cache_dir=cache),
            run_sweep(spec, backend="serial", journal=journal, resume=True),
            run_sweep(spec, backend="parallel", workers=2, cache_dir=cache),
        ]
        assert outcomes[4].resumed == 3 and outcomes[5].cached_rows == 2
        reference = outcomes[0].canonical_bytes()
        assert [o.canonical_bytes() for o in outcomes] == [reference] * len(outcomes)
        rows = strict_loads(reference)
        assert [row["status"] for row in rows] == ["OK", "FAILED", "OK"]
        assert rows[1]["error"] == (
            "SweepError: payload.goodput[1]: non-finite float nan is not JSON"
        )
        assert all(o.rows[1].attempts == 1 for o in outcomes)


class TestCrashIsolation:
    def test_dead_worker_becomes_failed_row(self):
        """A worker hard-dying (os._exit) takes down its own cell and
        nothing else: the cell is re-queued against the retry budget, so
        the genuine crasher fails alone and every neighbour completes."""
        spec = SweepSpec("crash")
        spec.add("ok0", _ok_task)
        spec.add("dies", _dying_task)
        spec.add("ok1", _ok_task)
        spec.add("ok2", _ok_task)
        outcome = run_sweep(spec, backend="parallel", workers=2)
        by_name = {row.name: row for row in outcome.rows}
        assert [row.name for row in outcome.rows] == ["ok0", "dies", "ok1", "ok2"]
        dead = by_name["dies"]
        assert not dead.ok
        assert dead.error.startswith("worker died:")
        assert dead.attempts == 2  # one bounded retry, then recorded
        assert dead.wall_seconds > 0.0  # time lost is measured, never 0.0
        for name in ("ok0", "ok1", "ok2"):
            assert by_name[name].ok, outcome.render()

    @staticmethod
    def _one_killer_among_eight(retries, pids, **backend):
        """One process-killing cell among eight healthy ones: it executes
        exactly ``retries + 1`` times and lands FAILED; every neighbour —
        in flight beside it or not — runs once and lands OK."""
        os.mkdir(pids)
        spec = SweepSpec("isolation")
        for i in range(9):
            if i == 2:
                spec.add("dies", _counted_dying_task, pids=str(pids))
            else:
                spec.add(f"ok{i}", _pid_task, pids=str(pids))
        outcome = run_sweep(spec, retries=retries, **backend)
        assert len(outcome.rows) == 9
        for row in outcome.rows:
            if row.name != "dies":
                assert row.ok and row.attempts == 1, outcome.render()
                assert len(_noted_pids(pids, row.index)) == 1
        dead = row_named(outcome, "dies")
        assert dead.status == "FAILED" and dead.error.startswith("worker died:")
        assert dead.attempts == retries + 1
        assert len(_noted_pids(pids, dead.index)) == retries + 1
        assert outcome.fleet["scheduler"]["forgiven_losses"] == 0
        assert outcome.fleet["scheduler"]["requeues"] == retries
        return outcome

    @pytest.mark.parametrize("retries", [0, 1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_process_death_costs_its_own_cell_and_no_other(
        self, workers, retries, tmp_path
    ):
        self._one_killer_among_eight(
            retries, tmp_path / "pids", backend="parallel", workers=workers
        )

    @pytest.mark.parametrize("retries", [0, 1])
    @pytest.mark.parametrize("slots", [2, 4])
    def test_a_process_death_costs_its_own_cell_and_no_other_on_a_tcp_worker(
        self, slots, retries, tmp_path
    ):
        """The same campaign, the same rows and the same accounting over
        ``tcp`` to one multi-slot ``repro worker``: its slots are the very
        processes ``parallel`` forks, so a death breaks nothing shared."""
        server = WorkerServer(slots=slots)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            tcp = self._one_killer_among_eight(
                retries,
                tmp_path / "tcp",
                backend="tcp",
                hosts=[(server.host, server.port)],
            )
        finally:
            server.stop()
        parallel = self._one_killer_among_eight(
            retries, tmp_path / "parallel", backend="parallel", workers=slots
        )
        assert tcp.canonical_bytes() == parallel.canonical_bytes()

    @pytest.mark.parametrize("ending", ["normal", "fail-fast", "interrupted", "raising"])
    def test_no_slot_outlives_run_sweep(self, ending, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        pids.mkdir()
        spec = SweepSpec("reaped")
        for i in range(6):
            spec.add(
                f"t{i}",
                _pid_task,
                pids=str(pids),
                sleep_s=30.0 if ending == "interrupted" else 0.1 * (i % 2),
                passed=not (ending == "fail-fast" and i == 0),
            )
        kwargs = {"fail_fast": ending == "fail-fast"}
        if ending == "interrupted":

            def interrupt_once_both_slots_are_busy():
                while len(os.listdir(pids)) < 2:
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGINT)

            threading.Thread(target=interrupt_once_both_slots_are_busy).start()
        if ending == "raising":
            from repro.sweep.journal import JournalWriter

            def full_disk(self, row, fingerprint):
                raise SweepError("journal: no space left on device")

            monkeypatch.setattr(JournalWriter, "write_row", full_disk)
            kwargs["journal"] = str(tmp_path / "j.jsonl")
            with pytest.raises(SweepError, match="no space left"):
                run_sweep(spec, backend="parallel", workers=2, **kwargs)
        else:
            started = time.monotonic()
            outcome = run_sweep(spec, backend="parallel", workers=2, **kwargs)
            assert outcome.interrupted == (ending == "interrupted")
            assert outcome.aborted == (ending != "normal")
            assert time.monotonic() - started < 10.0  # never waits out a cell
        slots = set(_noted_pids(pids))
        assert slots and os.getpid() not in slots
        assert multiprocessing.active_children() == []
        assert all(_gone(pid) for pid in slots)

    def test_a_slot_whose_parent_is_sigkilled_exits_on_eof(self, tmp_path):
        """No slot holds a sibling's socket open: when the parent dies
        without a goodbye, every slot reads EOF and leaves."""
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(os.path.dirname(here))
        script = (
            "import sys; sys.path[:0] = [%r, %r]\n"
            "from repro.sweep import SweepSpec, run_sweep\n"
            "from tests.sweep.test_runner import _pid_task\n"
            "spec = SweepSpec('orphans')\n"
            "for i in range(4000):\n"
            "    spec.add(f't{i}', _pid_task, pids=%r, sleep_s=0.05)\n"
            "run_sweep(spec, backend='parallel', workers=3)\n"
        ) % (os.path.join(root, "src"), root, str(tmp_path))
        parent = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60.0
            while len(set(_noted_pids(tmp_path))) < 3:
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            parent.kill()
            parent.wait()
        slots = set(_noted_pids(tmp_path))
        deadline = time.monotonic() + 2.0
        while not all(_gone(pid) for pid in slots) and time.monotonic() < deadline:
            time.sleep(0.02)
        orphans = [pid for pid in slots if not _gone(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)  # the test fails; nothing leaks
        assert orphans == []

    def test_serial_backend_never_forks(self):
        pid = os.getpid()

        def check(task):  # noqa: ANN001 — local on purpose: serial only
            return {"pid": os.getpid()}

        # Serial accepts closures: nothing crosses a process.
        spec = SweepSpec("local")
        spec.add("here", _ok_task)
        outcome = run_sweep(spec, backend="serial")
        assert outcome.rows[0].ok
        assert os.getpid() == pid


class TestThreeBackends:
    """The front door's fixed table: three names, no registry."""

    @pytest.mark.parametrize("name", ["serial", "parallel", "tcp"])
    def test_known_name_builds_unknown_name_lists_it(self, name):
        from repro.sweep import remote

        executor = {
            "serial": runner.SerialExecutor,
            "parallel": remote.LocalExecutor,
            "tcp": remote.TcpExecutor,
        }[name]
        assert type(runner._executor(name)) is executor
        with pytest.raises(SweepError, match="unknown sweep backend 'nope'") as exc:
            run_sweep(SweepSpec("s"), backend="nope")
        assert name in str(exc.value)

    @pytest.mark.parametrize("backend", ["serial", "parallel", "tcp"])
    def test_what_run_returns_is_what_outcome_reports(self, backend, monkeypatch):
        """The executor contract has no back-channel: worker count, fleet
        snapshot and both flags travel in the ``BackendRun``."""
        returned = []
        build = runner._executor

        def recording(name):
            executor = build(name)
            run = executor.run

            def record(tasks, ctx):
                assert sorted(vars(ctx)) == sorted(
                    ["workers", "retries", "fail_fast", "task_timeout", "on_row",
                     "hosts", "meta", "secret", "exports"]
                )  # inputs only: nothing for an executor to write into
                returned.append(run(tasks, ctx))
                return returned[-1]

            executor.run = record
            return executor

        monkeypatch.setattr(runner, "_executor", recording)
        spec = SweepSpec("contract", base_seed=5).add("a", _ok_task).add("b", _raising_task)
        kwargs = {"backend": backend, "workers": 2, "fail_fast": True}
        if backend == "tcp":
            server = WorkerServer(slots=3)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            try:
                outcome = run_sweep(spec, hosts=[(server.host, server.port)], **kwargs)
            finally:
                server.stop()
        else:
            outcome = run_sweep(spec, **kwargs)
        (ran,) = returned
        assert isinstance(ran, runner.BackendRun)
        assert outcome.workers == ran.workers == {"serial": 1, "parallel": 2, "tcp": 3}[backend]
        assert (outcome.aborted, outcome.interrupted) == (ran.aborted, ran.interrupted) == (True, False)
        assert outcome.fleet is ran.fleet
        if backend == "serial":
            assert outcome.fleet is None
        else:
            assert sorted(outcome.fleet) == ["scheduler", "workers"]
            assert sorted(outcome.fleet["scheduler"]) == [
                "forgiven_losses", "hedge_duplicates", "hedge_mismatches",
                "hedges", "rejoins", "requeues",
            ]

    def test_a_serial_campaign_loads_no_fleet_code(self):
        """``import repro.sweep`` plus a serial campaign leave the fleet
        modules and ``multiprocessing`` unimported; ``parallel`` then loads
        them and merges to the same bytes."""
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(os.path.dirname(here))
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "import repro.sweep\n"
            "from repro.scripts import canonical_node_table, tcp_congestion_script\n"
            "from repro.sweep import SweepSpec, run_script_task, run_sweep\n"
            "fleet = ('repro.sweep.remote', 'repro.sweep.fleet', 'repro.sweep.wire',\n"
            "         'repro.sweep.health', 'multiprocessing')\n"
            "spec = SweepSpec('lazy', base_seed=3)\n"
            "spec.add_grid(run_script_task, axes={'seed': [0, 1]},\n"
            "              script=tcp_congestion_script(canonical_node_table(2)),\n"
            "              workload={'kind': 'tcp_bulk', 'bytes': 8192})\n"
            "serial = run_sweep(spec, backend='serial')\n"
            "early = [name for name in fleet if name in sys.modules]\n"
            "assert not early, early\n"
            "parallel = run_sweep(spec, backend='parallel', workers=2)\n"
            "late = [name for name in fleet if name not in sys.modules]\n"
            "assert not late, late\n"
            "assert len(serial.rows) == 2 and all(row.ok for row in serial.rows)\n"
            "assert serial.canonical_bytes() == parallel.canonical_bytes()\n"
        ) % os.path.join(root, "src")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestRunSweepValidation:
    def test_unknown_backend(self):
        with pytest.raises(SweepError, match="unknown sweep backend"):
            run_sweep(SweepSpec("s"), backend="threads")

    def test_bad_worker_count(self):
        with pytest.raises(SweepError, match="workers"):
            run_sweep(SweepSpec("s"), backend="parallel", workers=0)

    def test_bad_worker_count_on_serial_too(self):
        """``serial`` used to accept ``workers=0`` and ignore it."""
        with pytest.raises(SweepError, match="workers must be >= 1"):
            run_sweep(SweepSpec("s"), backend="serial", workers=0)

    def test_resume_without_a_journal_is_refused(self):
        """It used to run a cold campaign and report ``resumed == 0``."""
        spec = SweepSpec("s").add("a", _ok_task)
        with pytest.raises(SweepError, match="resume=True needs journal="):
            run_sweep(spec, backend="serial", resume=True)

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    @pytest.mark.parametrize(
        "fleet", [{"hosts": "127.0.0.1:9"}, {"secret": "s3cret"}], ids=["hosts", "secret"]
    )
    def test_fleet_args_off_tcp_are_refused(self, backend, fleet):
        """On a backend that dials nobody they used to be dropped without
        a word."""
        spec = SweepSpec("s").add("a", _ok_task)
        (argument,) = fleet
        with pytest.raises(SweepError, match=f"{argument}= was given") as refusal:
            run_sweep(spec, backend=backend, workers=1, **fleet)
        assert backend in str(refusal.value) and "tcp" in str(refusal.value)

    def test_fleet_env_variables_on_serial_are_legal(self, monkeypatch):
        """Deployment-wide settings: only an explicit argument is refused."""
        monkeypatch.setenv("REPRO_SWEEP_HOSTS", "127.0.0.1:9")
        monkeypatch.setenv("REPRO_SWEEP_SECRET", "s3cret")
        spec = SweepSpec("s").add("a", _ok_task)
        assert run_sweep(spec, backend="serial").rows[0].ok

    def test_negative_retries_rejected(self):
        """retries=-1 used to silently disable the re-queue of a cell whose
        worker died; it is now a campaign-spec error."""
        with pytest.raises(SweepError, match="retries must be >= 0"):
            run_sweep(SweepSpec("s"), backend="parallel", retries=-1)

    def test_zero_retries_allowed(self):
        spec = SweepSpec("s").add("a", _ok_task)
        outcome = run_sweep(spec, backend="serial", retries=0)
        assert outcome.rows[0].ok


class TestWorkersEnvKnob:
    """Precedence: explicit argument > REPRO_SWEEP_WORKERS > core default."""

    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        spec = SweepSpec("env").add("a", _ok_task)
        outcome = run_sweep(spec, backend="parallel")
        assert outcome.workers == 3

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        spec = SweepSpec("env").add("a", _ok_task)
        outcome = run_sweep(spec, backend="parallel", workers=2)
        assert outcome.workers == 2

    def test_serial_backend_ignores_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        spec = SweepSpec("env").add("a", _ok_task)
        assert run_sweep(spec, backend="serial").workers == 1

    @pytest.mark.parametrize("value", ["0", "-2", "four"])
    def test_invalid_env_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        spec = SweepSpec("env").add("a", _ok_task)
        with pytest.raises(SweepError, match="REPRO_SWEEP_WORKERS"):
            run_sweep(spec, backend="parallel")


class TestOneEnvSite:
    """Four deployment settings, read in one place, and nothing ignored."""

    @pytest.mark.parametrize(
        "stale",
        [
            "REPRO_SWEEP_HEDGE",
            "REPRO_SWEEP_HEARTBEAT_TIMEOUT_S",
            "REPRO_SWEEP_REJOIN_S",
            "REPRO_SWEEP_WORKRES",
        ],
    )
    def test_an_unknown_variable_is_an_error_naming_it_and_the_four(
        self, monkeypatch, stale
    ):
        """A knob this tier no longer has (or a typo of one it has) must
        not be silently ignored — on any backend, with every argument
        explicit, and on a worker as much as on a parent."""
        monkeypatch.setenv(stale, "0")
        spec = SweepSpec("env").add("a", _ok_task)
        for refuse in (
            lambda: run_sweep(spec, backend="serial", workers=1),
            lambda: WorkerServer(slots=1, secret="s"),
            default_workers,
        ):
            with pytest.raises(SweepError, match=stale) as failure:
                refuse()
            for name in ("WORKERS", "BACKEND", "HOSTS", "SECRET"):
                assert f"REPRO_SWEEP_{name}" in str(failure.value)

    def test_every_set_variable_is_validated_whoever_asks(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_HOSTS", "nonsense")
        with pytest.raises(SweepError, match="REPRO_SWEEP_HOSTS"):
            default_workers()

    def test_empty_values_mean_unset(self, monkeypatch):
        for name in ("WORKERS", "BACKEND", "HOSTS", "SECRET"):
            monkeypatch.setenv(f"REPRO_SWEEP_{name}", "")
        assert default_backend() == "parallel"
        assert default_hosts() is None and resolve_secret() is None
        assert default_workers() >= 1

    def test_default_is_parallel(self, monkeypatch):
        monkeypatch.delenv(runner.BACKEND_ENV, raising=False)
        assert default_backend() == "parallel"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(runner.BACKEND_ENV, "serial")
        assert default_backend() == "serial"
        spec = SweepSpec("env", base_seed=1).add("a", _ok_task)
        assert run_sweep(spec).backend == "serial"

    def test_unknown_env_backend_is_sweep_error(self, monkeypatch):
        monkeypatch.setenv(runner.BACKEND_ENV, "hyperdrive")
        spec = SweepSpec("env", base_seed=1).add("a", _ok_task)
        for refuse in (default_backend, lambda: run_sweep(spec, backend="serial")):
            with pytest.raises(SweepError, match="unknown sweep backend 'hyperdrive'") as exc:
                refuse()
            assert runner.BACKEND_ENV in str(exc.value)
            assert "serial, parallel, tcp" in str(exc.value)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(runner.BACKEND_ENV, "parallel")
        spec = SweepSpec("env", base_seed=1).add("a", _ok_task)
        assert run_sweep(spec, backend="serial").backend == "serial"

    def test_src_reads_the_environment_for_the_prefix_nowhere_else(self):
        """Of the modules under ``src`` that touch the process environment
        at all, only ``sweep/runner.py`` mentions the prefix — and it
        touches the environment exactly once, inside ``_read_env``."""
        import inspect
        import pathlib
        import re

        import repro

        reads = re.compile(r"\b(environ|getenv)\b")
        package = pathlib.Path(repro.__file__).parent
        sources = {
            path.relative_to(package).as_posix(): path.read_text(encoding="utf-8")
            for path in package.rglob("*.py")
        }
        readers = {
            name: len(reads.findall(text))
            for name, text in sources.items()
            if reads.search(text) and "REPRO_SWEEP_" in text
        }
        assert readers == {"sweep/runner.py": 1}
        assert reads.search(inspect.getsource(runner._read_env))


class TestTaskListInput:
    def test_task_list_accepted(self):
        tasks = SweepSpec("s", base_seed=2).add("a", _ok_task).tasks()
        outcome = run_sweep(tasks, backend="serial")
        assert outcome.spec_name == "tasks"
        assert outcome.rows[0].payload["seed"] == tasks[0].seed

    def test_non_task_rejected(self):
        with pytest.raises(SweepError, match="SweepTask"):
            run_sweep(["nope"], backend="serial")
