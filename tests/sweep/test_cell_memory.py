"""A cell gives its memory back when it ends.

A testbed is a web of reference cycles, so only the cyclic collector can
free it.  ``execute_task`` scopes that collector to the cell: every
testbed a cell built must be dead the moment its row is returned, on
every exit (``OK``, ``FAILED``, ``TIMEOUT``) and on every backend, with
automatic collection switched off so that nothing else could have freed
it.  Deterministic: the tests count live weak references, not memory.
"""

import gc
import weakref

import pytest

from repro.core.autogen import ScriptGenerator, rether_spec
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sim import seconds
from repro.sweep import SweepResult, SweepSpec, run_script_task, run_sweep
from repro.sweep import campaigns
from repro.sweep.runner import execute_task

RING = ["node1", "node2", "node3", "node4"]
FIG5 = tcp_congestion_script(canonical_node_table(2))
RETHER = ScriptGenerator(
    rether_spec(RING, [("node1", "node4")]), canonical_node_table(len(RING))
).generate_suite()

#: ``(kind, weak reference)`` for every testbed the campaign task
#: functions built, its simulator and each of its hosts.  The testbed
#: object need not sit on a cycle itself; its simulator and hosts do.
#: A slot forked from this process inherits the list and the wrapper.
_BUILT = []


class _RecordedTestbed(campaigns.Testbed):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _BUILT.append(("testbed", weakref.ref(self)))
        _BUILT.append(("sim", weakref.ref(self.sim)))

    def add_host(self, *args, **kwargs):
        host = super().add_host(*args, **kwargs)
        _BUILT.append(("host", weakref.ref(host)))
        return host


def _built(kind) -> int:
    return sum(1 for built, _ in _BUILT if built == kind)


def _live() -> int:
    return sum(1 for _, ref in _BUILT if ref() is not None)


def live_testbeds_task(task):
    """How many testbeds this process built, and how many of the objects
    recorded with them are alive."""
    return {"testbeds": _built("testbed"), "live": _live(), "passed": True}


def _interrupted_task(task):
    raise KeyboardInterrupt


@pytest.fixture(autouse=True)
def recorded_testbeds(monkeypatch):
    monkeypatch.setattr(campaigns, "Testbed", _RecordedTestbed)
    del _BUILT[:]
    yield
    del _BUILT[:]


@pytest.fixture
def no_automatic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _fig5(**params):
    params.setdefault("workload", {"kind": "tcp_bulk", "bytes": 64 * 1024})
    return SweepSpec("cell-memory", base_seed=3).add("fig5", run_script_task, script=FIG5, **params)


def _rether(name, max_time_ns=seconds(30)):
    return SweepSpec("cell-memory", base_seed=3).add(
        name,
        run_script_task,
        script=RETHER[name],
        medium="bus",
        rether=True,
        workload={"kind": "tcp_feed", "chunk": 1024, "interval_ns": 2_000_000},
        max_time_ns=max_time_ns,
    )


def _run_one(spec, task_timeout=None):
    """Execute the spec's one cell; its row, once no testbed is alive."""
    (task,) = spec.tasks()
    frozen = gc.get_freeze_count()
    row = execute_task(task, task_timeout)
    assert _built("testbed") and _built("host"), "the cell built no testbed"
    assert _live() == 0, f"{_live()} of {len(_BUILT)} recorded objects outlived the cell"
    assert gc.get_freeze_count() == frozen
    return row


CELLS = {
    "fig5-switch": lambda: _fig5(medium="switch"),
    "fig5-hub": lambda: _fig5(medium="hub"),
    "fig5-rll": lambda: _fig5(medium="hub", rll=True),
    "fig5-telemetry": lambda: _fig5(telemetry=True),
    "fig5-control-loss": lambda: _fig5(control_loss={"node2": 0.3}),
    **{f"rether-{name}": (lambda name=name: _rether(name)) for name in RETHER},
}


@pytest.mark.usefixtures("no_automatic_gc")
class TestTheCellEnds:
    def test_the_generated_rether_suite_is_all_here(self):
        assert {"crash_node2", "crash_node3", "baseline"} <= set(RETHER)
        assert len(RETHER) == 11

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_an_ok_cell_leaves_no_testbed_alive(self, cell):
        row = _run_one(CELLS[cell]())
        assert row.status == SweepResult.OK, row.error_detail

    def test_a_failed_cell_leaves_no_testbed_alive(self):
        row = _run_one(_fig5(medium="no-such-medium"))
        assert row.status == SweepResult.FAILED
        assert "no-such-medium" in row.error

    def test_a_timed_out_cell_leaves_no_testbed_alive(self):
        endless = {"kind": "tcp_bulk", "bytes": 1 << 30}
        row = _run_one(_fig5(workload=endless, max_time_ns=seconds(3600)), task_timeout=0.05)
        assert row.status == SweepResult.TIMEOUT and row.attempts == 2
        assert _built("testbed") == 2  # one per attempt, both freed

    def test_an_interrupted_cell_restores_the_freeze_count(self):
        frozen = gc.get_freeze_count()
        (task,) = SweepSpec("cell-memory").add("stop", _interrupted_task).tasks()
        with pytest.raises(KeyboardInterrupt):
            execute_task(task)
        assert gc.get_freeze_count() == frozen


@pytest.mark.usefixtures("no_automatic_gc")
def test_a_slot_starts_each_cell_with_no_testbed_of_the_last():
    """One slot runs both cells: the probe, second, must find the first
    cell's testbed built and already freed, although the slot inherited
    automatic collection switched off."""
    spec = _fig5(medium="switch")
    spec.add("probe", live_testbeds_task)
    outcome = run_sweep(spec, backend="parallel", workers=1)
    assert outcome.workers == 1
    first, probe = outcome.rows
    assert first.status == SweepResult.OK, first.error_detail
    assert probe.payload == {"testbeds": 1, "live": 0, "passed": True}
    assert _BUILT == []  # the cells ran in the slot, not here
