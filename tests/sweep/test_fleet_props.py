"""Hypothesis over event interleavings: the scheduler's invariants.

A rule-based state machine plays an adversarial network against one
:class:`~repro.sweep.fleet.FleetScheduler` — 1–3 workers, 1–6 tasks — and
interleaves, in any order Hypothesis likes, {dial answered (a first
connect or a rejoin), dial failed, GET, ROW, ERROR, heartbeat, close,
garbage and out-of-grammar bytes, rows nobody asked for, time advancing}.
After every step:

* no row lands twice, and every landed OK row equals the serial row;
* a FAILED row is the retry budget's verdict and carries exactly
  ``retries + 1`` attempts; re-queues never exceed the budget plus the
  forgiven flaps;
* a cell is never in flight twice on one worker, nor more than
  ``_HEDGE_MAX_COPIES`` times overall;
* no ``Send`` targets a closed connection, no TASK a quarantined worker;
* the scheduler never raises on worker-supplied bytes — only ``tick``
  may raise, and only ``SweepError``.

And from wherever the interleaving stopped, an honest fleet finishes the
campaign: every task ends with exactly one row.

A second property runs whole campaigns on the ``parallel`` backend's
topology (``fleet_sim.local_slots``) with a set of process-killing cells:
each dies alone, exactly ``retries + 1`` times.

The last ones hold the worker's decoder to totality: arbitrary bytes,
truncations and well-formed JSON with wrong-typed fields make
``decode_task`` raise ``ProtocolError`` and nothing else, and in a slot's
session each such TASK costs exactly one ERROR, for the cell it names,
while the slot keeps serving.
"""

import json
import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sweep import SweepSpec, fleet, remote
from repro.sweep.fleet import _HEDGE_MAX_COPIES, Close, Dial, FleetScheduler, Send
from repro.sweep.remote import read_frame
from repro.sweep.runner import ExecutorContext, execute_task
from repro.sweep.spec import SweepError, SweepResult, export_task
from repro.sweep.wire import (
    MSG_BYE,
    MSG_ERROR,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_ROW,
    MSG_TASK,
    ProtocolError,
    _json_payload,
    _parse_json,
    decode_task,
    encode_frame,
    task_frame,
    task_index,
)

from tests.sweep._remote_tasks import ok_task
from tests.sweep.fleet_sim import FleetSim, local_slots, parse_frame

ADDRESSES = ["a:1", "b:1", "c:1"]
worker_ids = st.integers(0, 2)


class FleetMachine(RuleBasedStateMachine):
    @initialize(
        tasks=st.integers(1, 6),
        workers=st.integers(1, 3),
        retries=st.integers(0, 2),
        slots=st.integers(1, 3),
    )
    def campaign(self, tasks, workers, retries, slots):
        spec = SweepSpec("props", base_seed=7)
        for i in range(tasks):
            spec.add(f"t{i}", ok_task)
        self.tasks = spec.tasks()
        self.serial = {task.index: execute_task(task) for task in self.tasks}
        self.retries, self.slots = retries, slots
        self.addresses = ADDRESSES[:workers]
        self.landed = []
        ctx = ExecutorContext(
            workers=0,
            retries=retries,
            fail_fast=False,
            task_timeout=None,
            on_row=self.landed.append,
            exports={task.index: export_task(task)[0] for task in self.tasks},
        )
        self.scheduler = FleetScheduler(self.tasks, ctx, self.addresses)
        # Six tasks never yield the eight rows hedging waits for; two let
        # the copy-count invariants see hedged cells.  Restored in teardown.
        self.hedge_min_rows, fleet.HEDGE_MIN_ROWS = fleet.HEDGE_MIN_ROWS, 2
        self.now = 100.0
        #: what the network knows: who was asked to be dialled, who is
        #: connected, and which cells each connected worker holds.
        self.dialling = set()
        self.held = {}
        self.task_sends = 0
        self.gave_up = False

    # -- carrying out actions, checking them as a shell would experience --

    def carry_out(self, actions):
        for action in actions:
            if isinstance(action, Dial):
                assert action.address not in self.held
                assert action.address not in self.dialling
                self.dialling.add(action.address)
            elif isinstance(action, Close):
                assert action.address in self.held, f"{action}: nothing to close"
                del self.held[action.address]
            else:
                assert isinstance(action, Send)
                assert action.address in self.held, f"{action}: sent to a closed address"
                mtype, payload = parse_frame(action.data)
                if mtype == MSG_TASK:
                    index = task_index(payload)
                    self.task_sends += 1
                    assert not self.scheduler.health.is_quarantined(
                        action.address, self.now
                    )
                    assert index not in self.held[action.address], "twice on one worker"
                    self.held[action.address].add(index)
                    copies = sum(index in held for held in self.held.values())
                    assert copies <= _HEDGE_MAX_COPIES

    def say(self, address, data, split=None):
        """Bytes from a worker, optionally delivered in two fragments."""
        cut = len(data) if split is None else split % (len(data) + 1)
        for chunk in (data[:cut], data[cut:]):
            if chunk and address in self.held:
                self.carry_out(self.scheduler.received(address, chunk, self.now))

    def holding(self):
        return sorted(
            (address, index) for address, held in self.held.items() for index in held
        )

    connected = precondition(lambda self: self.held)
    busy = precondition(lambda self: self.holding())
    splits = st.one_of(st.none(), st.integers(0, 400))

    # -- rules: time ------------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.05, 0.3, 0.3, 0.3, 1.0, 1.0, 4.0, 11.0]))
    def time_passes(self, dt):
        self.now += dt
        try:
            self.carry_out(self.scheduler.tick(self.now))
        except SweepError:
            # Legitimate only when nobody is connected.  A real shell
            # stops here; the machine plays on, which must be harmless.
            assert not self.held
            self.gave_up = True

    # -- rules: dials (a rejoin is one of these after a loss) ---------------

    @precondition(lambda self: self.dialling)
    @rule(data=st.data(), answered=st.sampled_from([True, True, True, False]))
    def dial_ends(self, data, answered):
        address = data.draw(st.sampled_from(sorted(self.dialling)))
        self.dialling.discard(address)
        if answered:
            self.held[address] = set()
            self.carry_out(self.scheduler.connected(address, self.slots, self.now))
            for _ in range(self.slots):  # what a worker does first
                self.say(address, encode_frame(MSG_GET, b"{}"))
        else:
            self.carry_out(
                self.scheduler.dial_failed(address, "Connection refused", False, self.now)
            )

    # -- rules: a worker speaks -------------------------------------------

    @connected
    @rule(data=st.data(), mtype=st.sampled_from([MSG_GET, MSG_HEARTBEAT]), split=splits)
    def small_talk(self, data, mtype, split):
        address = data.draw(st.sampled_from(sorted(self.held)))
        self.say(address, encode_frame(mtype, b"{}"), split)

    @busy
    @rule(
        data=st.data(),
        crash=st.sampled_from([False, False, False, True]),
        split=splits,
        then_get=st.booleans(),
    )
    def cell_ends(self, data, crash, split, then_get):
        """A held cell completes — a ROW — or takes its slot down — an
        ERROR; a well-behaved worker then asks for more."""
        address, index = data.draw(st.sampled_from(self.holding()))
        self.held[address].discard(index)
        if crash:
            report = {"index": index, "error": "worker died: X", "detail": "slot died"}
            frame = encode_frame(MSG_ERROR, _json_payload(report))
        else:
            frame = encode_frame(MSG_ROW, _json_payload(self.serial[index].to_record()))
        self.say(address, frame, split)
        if then_get:
            self.say(address, encode_frame(MSG_GET, b"{}"))

    # -- rules: a worker, or the network under it, misbehaves ---------------

    HOSTILE = st.one_of(
        st.binary(min_size=1, max_size=40),
        st.builds(
            encode_frame,
            st.one_of(st.sampled_from([MSG_ROW, MSG_ERROR, MSG_TASK]), st.integers(0, 255)),
            st.one_of(
                st.binary(max_size=40),
                st.sampled_from(
                    [
                        b"[]",
                        b"{}",
                        b'{"index": []}',
                        b'{"index": 1e999}',
                        b'{"index": 0.5, "detail": NaN}',
                        b'{"index": 0, "name": 1, "seed": "x", "status": "OK", "payload": 3}',
                        b'{"index":0,"name":"t0","seed":1,"status":"OK","payload":{},'
                        b'"wall_seconds":1e999}',
                    ]
                ),
            ),
        ),
    )

    @connected
    @rule(data=st.data(), how=st.sampled_from(["close", "hostile", "unasked"]))
    def misbehave(self, data, how):
        address = data.draw(st.sampled_from(sorted(self.held)))
        if how == "close":
            del self.held[address]
            self.carry_out(self.scheduler.closed(address, "connection closed", self.now))
        elif how == "hostile":
            # Garbage, or a well-framed message that is out of grammar.
            # Tolerated (a GET with a junk payload, say), or read as the end
            # of a cell — an ERROR naming one — and then the network agrees
            # before the answer is carried out: it may send that cell here.
            actions = self.scheduler.received(address, data.draw(self.HOSTILE), self.now)
            live = self.scheduler.workers.get(address)
            resent = {
                task_index(parse_frame(action.data)[1])
                for action in actions
                if isinstance(action, Send)
                and action.address == address
                and parse_frame(action.data)[0] == MSG_TASK
            }
            self.held[address] &= set(live.inflight if live else ()) - resent
            self.carry_out(actions)
        else:
            # A row for a cell this worker does not hold: finished, held
            # elsewhere, never dispatched, or not in the campaign at all.
            index = data.draw(st.integers(-1, 7))
            if index not in self.held[address]:
                row = self.serial.get(index) or SweepResult(
                    index=index, name="ghost", seed=0, status=SweepResult.OK
                )
                self.say(address, encode_frame(MSG_ROW, _json_payload(row.to_record())))

    # -- invariants -------------------------------------------------------

    @invariant()
    def rows_are_single_and_serial(self):
        if not hasattr(self, "scheduler"):
            return
        indices = [row.index for row in self.landed]
        assert len(indices) == len(set(indices)), "a row landed twice"
        assert {row.index: row for row in self.landed} == self.scheduler.rows
        for row in self.landed:
            if row.status == SweepResult.OK:
                assert row.canonical() == self.serial[row.index].canonical()
            else:
                assert row.status == SweepResult.FAILED
                assert row.error == "worker died: connection lost"
                assert row.attempts == self.retries + 1

    @invariant()
    def the_budget_bounds_the_work(self):
        if not hasattr(self, "scheduler"):
            return
        stats = self.scheduler.stats
        assert stats["requeues"] <= len(self.tasks) * self.retries + stats["forgiven_losses"]
        assert self.task_sends <= len(self.tasks) + stats["requeues"] + stats["hedges"]

    # -- and an honest fleet can always finish ------------------------------

    def teardown(self):
        if not hasattr(self, "scheduler"):
            return
        try:
            if not self.gave_up:
                self.finish_honestly()
        finally:
            fleet.HEDGE_MIN_ROWS = self.hedge_min_rows

    def finish_honestly(self):
        for _ in range(400):
            if self.scheduler.done:
                break
            self.time_passes(0.3)
            if self.gave_up:
                return  # the interleaving ended ten seconds into an outage
            for address in self.addresses:
                if address in self.dialling:
                    self.dialling.discard(address)
                    self.held[address] = set()
                    self.carry_out(self.scheduler.connected(address, 1, self.now))
                for index in sorted(self.held.get(address, ())):
                    if address in self.held:  # stale garbage may end it mid-way
                        self.held[address].discard(index)
                        record = self.serial[index].to_record()
                        self.say(address, encode_frame(MSG_ROW, _json_payload(record)))
                self.say(address, encode_frame(MSG_GET, b"{}"))  # also a sign of life
        assert self.scheduler.done, "an honest fleet could not finish the campaign"
        assert sorted(row.index for row in self.landed) == [t.index for t in self.tasks]
        self.rows_are_single_and_serial()
        self.carry_out(self.scheduler.shutdown())
        assert not self.held  # every connection said goodbye to


TestFleetInvariants = FleetMachine.TestCase
TestFleetInvariants.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)


@settings(max_examples=60, deadline=None)
@given(
    slots=st.integers(1, 4),
    retries=st.integers(0, 3),
    cells=st.integers(1, 12),
    poison=st.sets(st.integers(0, 11)),
)
def test_a_poisoned_cell_dies_alone_on_local_slots(slots, retries, cells, poison):
    """Every slot that takes a poisoned cell dies of it.  The cell is
    charged that death and no pardon ever refunds it, so it executes
    exactly ``retries + 1`` times; its neighbours execute once; and with
    every slot dead at once (one slot, or all of them poisoned together)
    the respawns still beat ``FLEET_WINDOW_S`` — ``run`` does not raise."""
    spec = SweepSpec("poisoned", base_seed=5)
    for i in range(cells):
        spec.add(f"t{i}", ok_task)
    poison &= set(range(cells))
    sim = FleetSim(spec, local_slots(slots), retries=retries, local=True)
    for index in poison:
        sim.on_task(lambda slot: slot.kill(), index=index)
    outcome = sim.run()
    serial = {task.index: execute_task(task) for task in sim.tasks}
    executions = sim.task_sends()
    assert [row.index for row in outcome.rows] == list(range(cells))
    for row in outcome.rows:
        if row.index in poison:
            assert row.status == SweepResult.FAILED
            assert row.error.startswith("worker died:")
            assert row.attempts == len(executions[row.index]) == retries + 1
        else:
            assert row.canonical() == serial[row.index].canonical()
            assert row.attempts == len(executions[row.index]) == 1
    stats = outcome.fleet["scheduler"]
    assert stats["forgiven_losses"] == 0
    assert stats["requeues"] == retries * len(poison)
    # A death is two strikes (ERROR, then the loss) and a respawn a clean
    # slate: no slot ever reaches the three that mean quarantine.
    for health in outcome.fleet["workers"].values():
        assert "fleet.quarantines" not in health


# ---------------------------------------------------------------------------
# The worker's decoder: total over bytes
# ---------------------------------------------------------------------------

_OK_CELL = {
    "fn": "tests.sweep._remote_tasks:ok_task", "index": 5, "name": "cell",
    "params": {"knob": [1, {"a": None}]}, "seed": 9,
}
_TASK = _json_payload(_OK_CELL)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
#: names no cell may run, each failing a different check; random text is
#: prefixed so that it can never name an importable module.
bad_functions = st.sampled_from(
    [
        "os:system", "os.path:join", "posix:system", "nt:system", "subprocess:run",
        "builtins:eval", "tests.sweep.test_remote:os.system",
        "repro.sweep.spec:importlib.import_module", "repro.sweep.spec:SweepSpec",
        "tests.sweep._remote_tasks:ok_task.__call__", "tests.sweep._remote_tasks:nope",
        "tests.sweep._remote_tasks", "", ":",
    ]
) | st.text(max_size=12).map(lambda text: "-" + text)


def _wrong(document, valid):
    """*document* with one field gone or of a type *valid* refuses (a
    field that may be null may also be missing)."""

    @st.composite
    def build(draw):
        key = draw(st.sampled_from(sorted(document)))
        changed = dict(document)
        if draw(st.booleans()) and not valid[key](None):
            del changed[key]
        else:
            changed[key] = draw(json_values.filter(lambda value: not valid[key](value)))
        return _json_payload(changed)

    return build()


task_garbage = st.one_of(
    st.binary(max_size=80),
    st.integers(0, len(_TASK) - 1).map(lambda cut: _TASK[:cut]),
    _wrong(
        _OK_CELL,
        {
            "fn": lambda value: isinstance(value, str),
            "index": lambda value: type(value) is int and value >= 0,
            "name": lambda value: isinstance(value, str),
            "params": lambda value: isinstance(value, dict),
            "seed": lambda value: type(value) is int,
        },
    ),
    bad_functions.map(lambda fn: _json_payload({**_OK_CELL, "fn": fn})),
)

@settings(max_examples=300, deadline=None)
@given(payload=task_garbage)
def test_the_task_decoder_raises_protocol_error_and_nothing_else(payload):
    try:
        decode_task(payload)
    except ProtocolError:
        return
    raise AssertionError(f"decoded {payload!r}")


def _frames_until_get(sock):
    """What the slot says up to its next GET, heartbeats aside."""
    frames = []
    while not frames or frames[-1][0] != MSG_GET:
        mtype, payload = read_frame(sock)
        if mtype != MSG_HEARTBEAT:
            frames.append((mtype, payload))
    return frames


def _has_index(payload):
    try:
        return task_index(payload) >= 0
    except ProtocolError:
        return False


#: an undecodable TASK that still names its cell.
undeliverable = task_garbage.filter(_has_index)


@settings(max_examples=25, deadline=None)
@given(cells=st.lists(undeliverable, min_size=1, max_size=3))
def test_each_undeliverable_cell_costs_one_error_and_the_slot_serves_on(cells):
    ours, theirs = socket.socketpair()
    ours.settimeout(30)
    session = threading.Thread(target=remote._serve_session, args=(theirs, None), daemon=True)
    session.start()
    try:
        assert _frames_until_get(ours) == [(MSG_GET, b"{}")]
        for cell in cells:
            ours.sendall(task_frame(cell))
            (error, get) = _frames_until_get(ours)
            assert error[0] == MSG_ERROR and get[0] == MSG_GET
            report = _parse_json(error[1], "ERROR")
            assert report["index"] == task_index(cell)
            assert report["error"].startswith("worker died: undeliverable task (")
        ours.sendall(task_frame(_TASK))  # and a good cell still runs
        ((mtype, payload), get) = _frames_until_get(ours)
        assert mtype == MSG_ROW and json.loads(payload)["payload"]["index"] == 5
        ours.sendall(encode_frame(MSG_BYE, b"{}"))
        session.join(timeout=30)
        assert not session.is_alive()
    finally:
        ours.close()
        theirs.close()
