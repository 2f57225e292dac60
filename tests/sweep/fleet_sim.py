"""The fleet in virtual time: VirtualWire's method turned on its own job protocol.

The real :class:`~repro.sweep.fleet.FleetScheduler` and real
:mod:`repro.sweep.wire` bytes run against *model* workers on a
:class:`repro.sim.Simulator`.  A :class:`ModelWorker` has slots, a service
time, a heartbeat every ``HEARTBEAT_INTERVAL_S`` virtual seconds and the
worker side of the handshake; its rows come from the real
``execute_task``, so a campaign's bytes must equal the serial backend's.
:class:`FleetSim` plays the part of ``TcpExecutor``'s socket shell — it
ticks the scheduler every 0.2 s, carries out its ``Send`` / ``Dial`` /
``Close`` actions over links with latency, and reports back ``connected``
/ ``dial_failed`` / ``received`` / ``closed`` — and checks, on every
action, that none is addressed to a connection the scheduler was told is
gone.  A dial is the shell's one blocking call: to a frozen host it holds
the parent's loop for the dial's whole timeout, so the rest of that batch
of actions, every tick and everything arriving from a worker waits until
it fails.

Faults are scripted at protocol events, the way an FSL script would:
``fleet.on_task(kill, worker="a:1", nth=3)`` (kill worker A on its 3rd
TASK), ``fleet.at(1.0, lambda: b.freeze(15.0))`` (SIGSTOP, socket open),
``worker.cut_next_frame = True`` (cut the link mid-frame),
``worker.corrupt_rows = 1`` (corrupt the next ROW), ``worker.kill(
restart_after=0.3)``, ``ModelWorker(secret="other")`` (refuse auth for
good: the parent here holds no secret).  A ten-second heartbeat timeout
costs microseconds, so no scenario needs a timing knob.

:func:`local_slots` is the ``parallel`` backend's topology — what
``LocalExecutor`` is to ``TcpExecutor``: N one-slot workers that need no
handshake, whose death the parent itself reports
(:func:`repro.sweep.remote.slot_died`) and which a redial respawns.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import NS_PER_SEC, Simulator
from repro.sweep import run_sweep
from repro.sweep.fleet import Action, Close, Dial, FleetScheduler, Send
from repro.sweep.remote import slot_died
from repro.sweep.runner import ExecutorContext, execute_task
from repro.sweep.spec import (
    SweepOutcome,
    SweepResult,
    SweepTask,
    export_task,
    spec_meta,
    tasks_of,
)
from repro.sweep.wire import (
    HEARTBEAT_INTERVAL_S,
    MSG_BYE,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_ROW,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    FrameBuffer,
    ProtocolError,
    Refused,
    _auth_proof,
    _json_payload,
    _parse_json,
    answer_welcome,
    casualty_frame,
    decode_task,
    encode_frame,
    hello_frame,
    task_index,
)

#: the real shell's ``select`` timeout: how often the scheduler is ticked.
TICK_S = 0.2

#: one-way link delay unless a scenario sets ``worker.latency_s``.
LATENCY_S = 0.001

#: what a fault rule may answer for the TASK it matched: the slot running
#: it dies, and the worker reports an ERROR frame.
CRASH_SLOT = "crash-slot"


def parse_frame(data: bytes) -> Tuple[int, bytes]:
    """The one whole frame *data* holds, as ``(type, payload)``."""
    buffer = FrameBuffer()
    buffer.feed(data)
    return buffer.next_frame()


class ModelWorker:
    """One ``repro worker`` as the parent can observe it."""

    def __init__(
        self,
        address: str,
        slots: int = 1,
        service_s: float = 0.1,
        secret: Optional[str] = None,
        up: bool = True,
        version: int = PROTOCOL_VERSION,
        refuse: Optional[str] = None,
    ) -> None:
        self.address = address
        self.slots = slots
        #: virtual seconds one cell occupies a slot (a float, or a
        #: function of the task index).
        self.service_s: Any = service_s
        self.secret = secret.encode() if secret else None
        self.version = version
        #: answer every HELLO with BYE carrying this text.
        self.refuse = refuse
        self.latency_s = LATENCY_S
        self.up = up
        self.frozen = False
        #: id of the parent connection being served, None between parents.
        self.session: Optional[int] = None
        #: TASK frames received over the worker's whole life.
        self.tasks_seen = 0
        #: corrupt this many upcoming ROW frames (one flipped payload byte).
        self.corrupt_rows = 0
        #: send every ROW twice.
        self.duplicate_rows = False
        #: deliver half of the next frame, then drop the connection.
        self.cut_next_frame = False
        self.fleet: "FleetSim" = None  # set by FleetSim
        self._epoch = 0  # bumps on kill: activity of a dead process never fires
        self._deferred: List[Callable[[], None]] = []
        self._buffer = FrameBuffer()
        self._nonces = 0

    # -- faults ---------------------------------------------------------

    def kill(self, restart_after: Optional[float] = None) -> None:
        """SIGKILL, slots included: every socket closes at once."""
        self.up = self.frozen = False
        self._epoch += 1
        self._deferred.clear()
        self.cut()
        if restart_after is not None:
            self.fleet.at(self.fleet.now + restart_after, self.start)

    def start(self) -> None:
        self.up = True

    def freeze(self, duration_s: float) -> None:
        """SIGSTOP for *duration_s*: nothing runs, nothing is sent, the
        sockets stay open; then SIGCONT."""
        self.frozen = True
        self._later(duration_s, self._thaw, even_frozen=True)

    def _thaw(self) -> None:
        self.frozen = False
        deferred, self._deferred = self._deferred, []
        for callback in deferred:
            callback()

    def cut(self) -> None:
        """The link dies mid-stream; the worker itself is fine."""
        if self.session is not None:
            self.fleet.worker_closed(self, self.session)
            self.session = None

    def inject(self, data: bytes) -> None:
        """Raw bytes towards the parent on the live connection."""
        if self.session is not None:
            self.fleet.to_parent(self, self.session, data)

    # -- the worker side of the protocol ----------------------------------

    def _later(
        self, delay_s: float, callback: Callable[[], None], even_frozen: bool = False
    ) -> None:
        """Worker-side activity: dies with the process, waits out a freeze."""
        epoch = self._epoch

        def fire() -> None:
            if epoch != self._epoch:
                return
            if self.frozen and not even_frozen:
                self._deferred.append(callback)
            else:
                callback()

        self.fleet.at(self.fleet.now + delay_s, fire)

    def accept(self, conn: int, hello: bytes) -> bytes:
        """A parent connected and said HELLO: answer WELCOME with this
        worker's proof, or BYE — what ``WorkerServer._serve_connection``
        answers — and serve *conn* from now on."""
        parent = _parse_json(parse_frame(hello)[1], "HELLO")
        if self.refuse is not None:
            return encode_frame(MSG_BYE, _json_payload({"error": self.refuse}))
        self._begin(conn)
        self._nonces += 1
        nonce = f"{self.address}#{self._nonces:024d}"
        return encode_frame(
            MSG_WELCOME,
            _json_payload(
                {
                    "version": self.version,
                    "slots": self.slots,
                    "nonce": nonce,
                    "proof": _auth_proof(self.secret, "worker", parent["nonce"], nonce),
                }
            ),
        )

    def _begin(self, conn: int) -> None:
        self.session = conn
        self._buffer = FrameBuffer()

    def serve(self, conn: int) -> None:
        """Serve *conn* with no handshake (a local slot's socketpair)."""
        self._begin(conn)
        self.authenticated(conn)

    def authenticated(self, conn: int) -> None:
        """The parent's AUTH arrived: one GET per slot, then heartbeat."""

        def beat() -> None:
            if self.session == conn:
                self._send(conn, encode_frame(MSG_HEARTBEAT, b"{}"))
                self._later(HEARTBEAT_INTERVAL_S, beat)

        def serve() -> None:
            for _ in range(self.slots):
                self._send(conn, encode_frame(MSG_GET, b"{}"))
            self._later(HEARTBEAT_INTERVAL_S, beat)

        self._later(0.0, serve)

    def deliver(self, conn: int, data: Optional[bytes]) -> None:
        """Bytes from the parent (``None``: it closed the connection)."""
        self._later(0.0, lambda: self._on_bytes(conn, data))

    def _on_bytes(self, conn: int, data: Optional[bytes]) -> None:
        if self.session != conn:
            return
        if data is None:
            self.session = None  # parent gone: clean up, accept the next one
            return
        self._buffer.feed(data)
        while self.session == conn:
            frame = self._buffer.next_frame()
            if frame is None:
                return
            mtype, payload = frame
            if mtype == MSG_TASK:
                self._on_task(conn, payload)
            elif mtype == MSG_BYE:
                self.session = None

    def _on_task(self, conn: int, payload: bytes) -> None:
        task = decode_task(payload)
        index = task.index
        self.tasks_seen += 1
        verdict = self.fleet.task_fault(self, index)
        if self.session != conn:
            return  # the rule killed or cut this worker
        service = self.service_s(index) if callable(self.service_s) else self.service_s

        def complete() -> None:
            if self.session != conn:
                return  # the slots died with the session
            if verdict == CRASH_SLOT:
                # What the relay sends on reading a dead slot's EOF: one
                # casualty, for the cell that slot held, then its fresh GET.
                self._send(conn, casualty_frame(index, "slot process died"))
            else:
                row = execute_task(task)
                frame = encode_frame(MSG_ROW, _json_payload(row.to_record()))
                if self.corrupt_rows:
                    self.corrupt_rows -= 1
                    frame = frame[:12] + bytes((frame[12] ^ 0xFF,)) + frame[13:]
                self._send(conn, frame * (2 if self.duplicate_rows else 1))
            self._send(conn, encode_frame(MSG_GET, b"{}"))

        self._later(service, complete)

    def _send(self, conn: int, frame: bytes) -> None:
        if self.session != conn:
            return
        if self.cut_next_frame:
            self.cut_next_frame = False
            self.fleet.to_parent(self, conn, frame[: len(frame) // 2])
            self.cut()
        else:
            self.fleet.to_parent(self, conn, frame)


class FleetSim:
    """The scheduler's driver in virtual time (``TcpExecutor``'s stand-in)."""

    def __init__(
        self,
        spec_or_tasks: Any,
        workers: Sequence[ModelWorker],
        retries: int = 1,
        fail_fast: bool = False,
        local: bool = False,
    ) -> None:
        #: the workers are the parent's own slot processes (see
        #: :func:`local_slots`), not hosts behind a handshake.
        self.local = local
        self.sim = Simulator()
        self.tasks: List[SweepTask] = tasks_of(spec_or_tasks)
        self.meta = spec_meta(spec_or_tasks)
        self.workers = {worker.address: worker for worker in workers}
        for worker in workers:
            worker.fleet = self
        #: every row in the order the scheduler landed it.
        self.landed: List[SweepResult] = []
        self.ctx = ExecutorContext(
            workers=0,
            retries=retries,
            fail_fast=fail_fast,
            task_timeout=None,
            on_row=self.landed.append,
            meta=self.meta,
            exports={task.index: export_task(task)[0] for task in self.tasks},
        )
        self.scheduler = FleetScheduler(self.tasks, self.ctx, list(self.workers))
        #: every action the scheduler emitted, stamped with virtual time.
        self.actions: List[Tuple[float, Action]] = []
        #: address -> id of the connection the parent side holds open.
        self.open: Dict[str, int] = {}
        self._connections = 0
        self._arrival: Dict[Tuple[str, str], int] = {}
        self._rules: List[Tuple[Optional[str], Optional[int], Optional[int], Callable]] = []
        self._finished = False
        #: virtual ns until which a blocking dial holds the parent's loop.
        self._blocked_until = 0

    # -- scripting ------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now / NS_PER_SEC

    def at(self, when_s: float, callback: Callable[[], None]) -> None:
        self.sim.at(max(self.sim.now, int(round(when_s * NS_PER_SEC))), callback)

    def on_task(
        self,
        do: Callable[[ModelWorker], Optional[str]],
        worker: Optional[str] = None,
        index: Optional[int] = None,
        nth: Optional[int] = None,
    ) -> None:
        """When a TASK frame reaches a worker — optionally only *worker*,
        only cell *index*, only that worker's *nth* TASK — call
        ``do(worker)``; it may return :data:`CRASH_SLOT`."""
        self._rules.append((worker, index, nth, do))

    def task_fault(self, worker: ModelWorker, index: int) -> Optional[str]:
        verdict = None
        for address, wanted, nth, do in self._rules:
            if (
                address in (None, worker.address)
                and wanted in (None, index)
                and nth in (None, worker.tasks_seen)
            ):
                verdict = do(worker) or verdict
        return verdict

    # -- the run ----------------------------------------------------------

    def run(self, max_virtual_s: float = 600.0) -> SweepOutcome:
        """Drive the campaign to its end.  ``SweepError`` from the
        scheduler propagates, as it does out of the real shell."""
        self.at(0.0, self._tick)
        self.sim.drain(deadline=int(max_virtual_s * NS_PER_SEC))
        assert self._finished, (
            f"campaign still running after {max_virtual_s} virtual seconds: "
            f"{len(self.scheduler.rows)}/{len(self.tasks)} rows"
        )
        rows = self.scheduler.rows
        return SweepOutcome(
            spec_name=self.meta["name"],
            base_seed=self.meta["base_seed"],
            backend="tcp",
            workers=self.scheduler.peak_slots,
            rows=[rows[task.index] for task in self.tasks if task.index in rows],
            wall_seconds=self.now,
            aborted=self.scheduler.aborted,
            fleet=self.scheduler.snapshot(self.now),
        )

    def _parent(self, callback: Callable[[], None]) -> Callable[[], None]:
        """*callback* as parent-side work: it waits out a blocking dial."""

        def run() -> None:
            if self.sim.now < self._blocked_until:
                self.sim.at(self._blocked_until, run)
            else:
                callback()

        return run

    def _tick(self) -> None:
        if self._finished:
            return
        self.execute(self.scheduler.tick(self.now))
        if not self._finished:
            self.sim.after(int(TICK_S * NS_PER_SEC), self._parent(self._tick))

    def execute(self, actions: Sequence[Action]) -> None:
        for position, action in enumerate(actions):
            self.actions.append((self.now, action))
            if isinstance(action, Dial):
                assert action.address not in self.open, f"dialled twice: {action}"
                if self._dial(action):
                    # Blocked: the rest of the batch goes out after the
                    # dial fails, and what the failure causes after that.
                    rest, address = list(actions[position + 1 :]), action.address
                    self.sim.at(self._blocked_until, lambda: self.execute(
                        rest + self.scheduler.dial_failed(address, "timed out", False, self.now)
                    ))
                    return
                continue
            # No socket ever fails a write here, so the shell's "died
            # earlier in this batch" excuse does not exist: a Send or
            # Close for a connection the scheduler knows is gone is a bug.
            assert action.address in self.open, f"{action} targets no connection"
            worker = self.workers[action.address]
            conn = self.open[action.address]
            if isinstance(action, Close):
                del self.open[action.address]
                self._link(worker, "down", partial(worker.deliver, conn, None))
            else:
                self._link(worker, "down", partial(worker.deliver, conn, action.data))
        if self.scheduler.done and not self._finished:
            self._finished = True
            self.sim.stop()  # no event after this one
            self.execute(self.scheduler.shutdown())

    def _link(self, worker: ModelWorker, direction: str, arrive: Callable[[], None]) -> None:
        """One-way delivery after the link's latency, never overtaking
        what was sent before it (TCP does not reorder)."""
        when = max(
            self.sim.now + int(worker.latency_s * NS_PER_SEC),
            self._arrival.get((worker.address, direction), 0),
        )
        self._arrival[(worker.address, direction)] = when
        self.sim.at(when, self._parent(arrive) if direction == "up" else arrive)

    def _dial(self, action: Dial) -> bool:
        """Start a dial; True when it holds the parent until it times out."""
        worker = self.workers[action.address]
        address = action.address
        if self.local:
            # socketpair + fork: a fresh process, connected at once.
            worker.start()
            self._connections += 1
            self.open[address] = conn = self._connections
            worker.serve(conn)
            self.execute(self.scheduler.connected(address, 1, self.now))
            return False

        def failed(reason: str, permanent: bool = False) -> Callable[[], None]:
            return lambda: self.execute(
                self.scheduler.dial_failed(address, reason, permanent, self.now)
            )

        if not worker.up:
            self._link(worker, "up", failed("[Errno 111] Connection refused"))
            return False
        if worker.frozen:  # the kernel accepts, nobody answers HELLO
            self._blocked_until = self.sim.now + int(action.timeout_s * NS_PER_SEC)
            return True
        self._connections += 1
        conn = self._connections
        nonce = f"parent#{conn:024d}"
        reply = worker.accept(conn, hello_frame(nonce, self.meta, len(self.tasks), None))
        try:
            slots, _auth = answer_welcome(*parse_frame(reply), None, nonce)
        except ProtocolError as exc:
            self._link(worker, "up", failed(str(exc), isinstance(exc, Refused)))
            self._link(worker, "down", partial(worker.deliver, conn, None))
            return False

        def admitted() -> None:
            self.open[address] = conn
            self._link(worker, "down", partial(worker.authenticated, conn))
            self.execute(self.scheduler.connected(address, slots, self.now))

        self._link(worker, "up", admitted)
        return False

    # -- what workers do to the parent ------------------------------------

    def to_parent(self, worker: ModelWorker, conn: int, data: bytes) -> None:
        """Bytes towards the parent, delivered in two fragments so frame
        reassembly is always exercised."""

        def arrive() -> None:
            for chunk in (data[: len(data) // 2], data[len(data) // 2 :]):
                if chunk and self.open.get(worker.address) == conn:
                    self.execute(
                        self.scheduler.received(worker.address, chunk, self.now)
                    )

        self._link(worker, "up", arrive)

    def worker_closed(self, worker: ModelWorker, conn: int) -> None:
        def arrive() -> None:
            if self.open.get(worker.address) == conn:
                del self.open[worker.address]
                address, reason = worker.address, "connection closed"
                if self.local:  # EOF from a process the parent owns
                    actions = slot_died(
                        self.scheduler, address, "slot process died", reason, self.now
                    )
                else:
                    actions = self.scheduler.closed(address, reason, self.now)
                self.execute(actions)

        self._link(worker, "up", arrive)

    # -- what tests read --------------------------------------------------

    def task_sends(self) -> Dict[int, List[Tuple[float, str]]]:
        """Per cell index: when and to whom each TASK frame went."""
        sends: Dict[int, List[Tuple[float, str]]] = {}
        for when, action in self.actions:
            if isinstance(action, Send):
                mtype, payload = parse_frame(action.data)
                if mtype == MSG_TASK:
                    sends.setdefault(task_index(payload), []).append(
                        (when, action.address)
                    )
        return sends


def local_slots(count: int, **kwargs: Any) -> List[ModelWorker]:
    """The workers of ``FleetSim(..., local=True)``: *count* one-slot
    processes, not yet forked, named as ``LocalExecutor`` names them."""
    return [ModelWorker(f"slot-{k}", slots=1, up=False, **kwargs) for k in range(count)]


def serial_bytes(spec_or_tasks: Any) -> bytes:
    """The reference every scenario's merged rows are compared with."""
    return run_sweep(spec_or_tasks, backend="serial").canonical_bytes()
