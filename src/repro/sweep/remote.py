"""The fleet backends' I/O: ``repro worker``, the slot process, the parent shell.

The job protocol — frames, handshake, cells — is
:mod:`repro.sweep.wire`; every scheduling decision is the pure
:class:`repro.sweep.fleet.FleetScheduler`.  What is left here is I/O:

* the slot process (:func:`_slot_main`), the one kind of process that
  executes cells for ``parallel`` and ``tcp`` alike: one session
  (:func:`_serve_session`: GET, heartbeat, TASK / BYE in, ROW /
  ERROR out) over its end of a private ``socketpair``, cells inline;
* :class:`WorkerServer` (``repro worker``): the handshake, then a frame
  relay (:func:`_relay`) between the parent and ``slots`` such processes;
* :class:`_FleetShell`, which drives one ``FleetScheduler`` over real
  sockets — ``time.monotonic()`` for ``now``, ``recv`` into ``received``,
  EOF and failed sends into ``closed``, its actions carried out — with a
  dialer per backend: :class:`TcpExecutor` (``tcp``: connect, HELLO /
  WELCOME / AUTH) and :class:`LocalExecutor` (``parallel``: it forks its
  slot processes itself).
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import selectors
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# A slot is forked and inherits its owner's modules.  The testbed imports
# the FIE, the FSL compiler and the analysis tier only when a scenario uses
# them, so load them here, once, rather than in every slot's first cell.
from .. import analysis, rll, trace  # noqa: F401
from ..core import audit, chaos, engine, frontend, fsl, report, tables  # noqa: F401
from .fleet import Action, Close, Dial, FleetScheduler
from .runner import (
    BackendRun,
    ExecutorContext,
    SweepExecutor,
    default_hosts,
    default_workers,
    execute_task,
    parse_hosts,
    resolve_secret,
)
from .spec import SweepError, SweepTask, export_task
from .wire import (
    HEARTBEAT_INTERVAL_S,
    MSG_AUTH,
    MSG_BYE,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_ROW,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ConnectionLost,
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

#: Socket send timeout: a peer that cannot drain a frame in this long is
#: as good as dead.
_SEND_TIMEOUT_S = 30.0


def _fresh_nonce() -> str:
    return os.urandom(16).hex()


def read_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Blocking read of exactly one frame through the one parser.

    Asks the socket for no more than the frame still lacks, so nothing of
    the next frame is consumed; a header that fails the parser's checks
    raises before a single payload byte is requested.
    """
    buffer = FrameBuffer()
    while True:
        frame = buffer.next_frame()
        if frame is not None:
            return frame
        try:
            chunk = sock.recv(min(buffer.missing(), 1 << 16))
        except OSError as exc:
            raise ConnectionLost(f"connection lost mid-frame: {exc}") from None
        if not chunk:
            raise ConnectionLost("connection closed mid-frame")
        buffer.feed(chunk)


# ---------------------------------------------------------------------------
# The slot process: the one kind of process that executes cells
# ---------------------------------------------------------------------------


#: Serialises forks: a slot another thread forks while *theirs* is open
#: would hold it, and this slot's death would never reach *ours* as EOF.
_FORK_LOCK = threading.Lock()


def _fork_slot(
    task_timeout: Optional[float], *owner_socks: socket.socket
) -> Tuple[socket.socket, Any]:
    """Start a slot process behind a private ``socketpair``; returns the
    owner's end and the process.  ``fork`` (cheap; inherits the modules
    and the compile cache) where the platform has it, else its default;
    only fork hands the owner's other sockets down for the slot to close
    (elsewhere the numbers would name other files).  :class:`OSError`
    when the host is out of descriptors, processes or memory."""
    with _FORK_LOCK:
        ours, theirs = socket.socketpair()
        try:
            forks = "fork" in multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if forks else None)
            inherited = [sock.fileno() for sock in (ours, *owner_socks)] if forks else []
            slot = context.Process(target=_slot_main, args=(theirs, inherited, task_timeout))
            slot.start()
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
    return ours, slot


def _kill_slot(slot: Any) -> str:
    """Kill and reap a slot process — idle, it is leaving anyway (BYE,
    EOF); mid-cell, its row is no longer wanted — and say how it ended,
    which for one that was found dead is how it died."""
    slot.kill()
    slot.join()
    return f"slot process {slot.pid} died (exit code {slot.exitcode})"


def _slot_main(
    conn: socket.socket, inherited_fds: Sequence[int], task_timeout: Optional[float]
) -> None:
    """A slot process: one session over its end of the pair (no handshake:
    nobody else can hold the other end), until BYE or EOF — its owner died.

    The *owner* owns SIGINT: a terminal Ctrl-C reaches the whole process
    group, and a slot racing its owner's graceful abort with its own
    KeyboardInterrupt would turn deterministic rows into nondeterministic
    FAILED ones.  And a forked slot is born holding its owner's other
    sockets (a ``repro worker``'s listener and parent connection, every
    sibling's pair); while it held them, a SIGKILLed owner's peers would
    never see EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        _serve_session(conn, task_timeout)
    except (ProtocolError, OSError):
        pass  # a broken owner needs no traceback from every slot


def _serve_session(conn: socket.socket, task_timeout: Optional[float]) -> None:
    """A slot's session, the whole life of its process: ask for a cell
    (GET), run it inline, answer ROW — ERROR for a TASK that will not
    decode — and ask again, until BYE; heartbeat in the background.  A
    TASK naming no cell ends it all."""
    send_lock = threading.Lock()
    get, beat = encode_frame(MSG_GET, b"{}"), encode_frame(MSG_HEARTBEAT, b"{}")

    def send(frame: bytes) -> None:
        with send_lock:
            conn.sendall(frame)

    def heartbeat() -> None:  # a daemon thread: it ends with the process
        try:
            while True:
                time.sleep(HEARTBEAT_INTERVAL_S)
                send(beat)
        except OSError:
            pass  # the owner is gone, and the main thread is finding out

    threading.Thread(target=heartbeat, daemon=True).start()
    send(get)
    while True:
        mtype, payload = read_frame(conn)
        if mtype == MSG_TASK:
            try:
                task = decode_task(payload)
            except ProtocolError as exc:
                # Report it instead of dying — the parent owns the
                # retry/fail decision.
                send(casualty_frame(task_index(payload), f"undeliverable task ({exc})"))
            else:
                row = execute_task(task, task_timeout)
                send(encode_frame(MSG_ROW, _json_payload(row.to_record())))
            send(get)
        elif mtype == MSG_BYE:
            return
        elif mtype not in (MSG_HEARTBEAT, MSG_GET):  # those: tolerated
            raise ProtocolError(f"unexpected message type {mtype} from parent")


# ---------------------------------------------------------------------------
# ``repro worker``: the handshake, then a frame relay to its slots
# ---------------------------------------------------------------------------


@dataclass
class _RelaySlot:
    """What the relay knows of one of its slot processes."""

    sock: socket.socket
    process: Any
    asking: bool  # the parent holds a GET of this slot's that no TASK has answered
    replaces_asker: bool  # its first GET is the one its predecessor died asking
    cell: Optional[int] = None  # what it was last handed, until its next GET
    buffer: FrameBuffer = field(default_factory=FrameBuffer)


def _relay(
    conn: socket.socket, listener: socket.socket, count: int, task_timeout: Optional[float]
) -> None:
    """An authenticated ``repro worker`` session: frames between the parent
    and *count* slot processes, on one selector; of a TASK it reads only
    the cell index.

    Slot to parent, GET / HEARTBEAT / ROW / ERROR pass through whole.
    Parent to slot, a TASK goes to a slot whose GET is outstanding — the
    parent's pull protocol is the only scheduler, so there is no queue and
    a TASK nobody asked for ends the session.  A slot's EOF is an ERROR
    frame for the one cell it held and a fresh fork.  Every way out kills
    and reaps every slot.
    """
    selector = selectors.DefaultSelector()
    slots: List[_RelaySlot] = []
    from_parent = FrameBuffer()

    def fork(asking: bool) -> None:
        siblings = (slot.sock for slot in slots)
        sock, process = _fork_slot(task_timeout, conn, listener, *siblings)
        slots.append(_RelaySlot(sock, process, asking, replaces_asker=asking))
        selector.register(sock, selectors.EVENT_READ, slots[-1])

    def to_slot(mtype: int, payload: bytes) -> None:
        if mtype == MSG_TASK:
            index = task_index(payload)
            slot = next((slot for slot in slots if slot.asking), None)
            if slot is None:
                raise ProtocolError(f"TASK {index} arrived with no slot asking")
            slot.asking, slot.cell = False, index
            try:
                slot.sock.sendall(encode_frame(mtype, payload))
            except OSError:
                pass  # it has just died: its EOF, read next, reports the cell
        elif mtype not in (MSG_HEARTBEAT, MSG_GET):  # those: tolerated
            raise ProtocolError(f"unexpected message type {mtype} from parent")

    def from_slot(slot: _RelaySlot, data: bytes) -> None:
        slot.buffer.feed(data)
        for mtype, payload in iter(slot.buffer.next_frame, None):
            if mtype == MSG_GET:
                if slot.replaces_asker:
                    slot.replaces_asker = False
                    continue
                slot.asking, slot.cell = True, None
            conn.sendall(encode_frame(mtype, payload))
        if not data:
            slots.remove(slot)
            selector.unregister(slot.sock)
            slot.sock.close()
            cause = _kill_slot(slot.process)
            if slot.cell is not None:
                conn.sendall(casualty_frame(slot.cell, cause))
            fork(asking=slot.asking)

    selector.register(conn, selectors.EVENT_READ)
    try:
        for _ in range(count):
            fork(asking=False)
        while True:
            for key, _mask in selector.select():
                try:
                    data = key.fileobj.recv(1 << 16)
                except OSError:
                    data = b""  # reset: gone all the same
                if key.data is not None:
                    from_slot(key.data, data)
                    continue
                from_parent.feed(data)
                for mtype, payload in iter(from_parent.next_frame, None):
                    if mtype == MSG_BYE:
                        return
                    to_slot(mtype, payload)
                if not data:
                    return
    finally:
        for slot in slots:
            slot.sock.close()
            _kill_slot(slot.process)
        selector.close()


class WorkerServer:
    """``repro worker``: serve campaign cells over N local slot processes.

    Listens for one parent at a time (campaigns are sequential); for each
    connection it runs the authenticated handshake (HELLO/WELCOME/AUTH),
    then forks ``slots`` slot processes and relays frames between them
    and the parent (:func:`_relay`) until BYE or EOF, when every slot —
    idle or mid-cell — is killed and reaped.  The listening process
    imports and compiles nothing a parent sends: TASK frames pass through
    to a slot, which exists only once the parent's HMAC proof has
    verified.

    A slot process that hard-dies costs the cell it held and no other: the
    casualty goes upstream as an ERROR frame (charged to the cell's retry
    budget) and the slot is forked again, so one poisoned cell cannot take
    the host — or its neighbours' rows — out of the fleet.

    ``max_idle`` seconds without a parent connection makes
    :meth:`serve_forever` return (``idle_exit`` set), so orphaned fleet
    processes do not leak on shared hosts.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: Optional[int] = None,
        secret: Optional[Any] = None,
        secret_file: Optional[str] = None,
        max_idle: Optional[float] = None,
    ) -> None:
        if slots is not None and slots < 1:
            raise SweepError(f"worker slots must be >= 1, got {slots}")
        if max_idle is not None and not max_idle > 0:
            raise SweepError(f"worker max_idle must be > 0 seconds, got {max_idle}")
        # Consulted even when slots= is explicit, as run_sweep does for its
        # backend: a stale REPRO_SWEEP_* name stops a worker too.
        env_slots = default_workers()
        self.slots = slots if slots is not None else env_slots
        self.secret = resolve_secret(secret, secret_file)
        self.max_idle = max_idle
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        #: campaigns served since start (observability / tests).
        self.campaigns_served = 0
        #: peers rejected by the authenticated handshake (observability).
        self.auth_failures = 0
        #: serve_forever returned because max_idle expired.
        self.idle_exit = False

    def stop(self) -> None:
        self._stop.set()
        try:
            # Wake accept(): left blocked, it has been seen to answer for
            # whichever listener next reuses the descriptor number.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()

    def serve_forever(self) -> None:
        """Accept parents until :meth:`stop`, listener death, or
        ``max_idle`` seconds without a parent."""
        last_parent = time.monotonic()
        if self.max_idle is not None:
            # Wake from accept() often enough to notice idleness.
            self._listener.settimeout(min(0.5, self.max_idle / 4))
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    if (
                        self.max_idle is not None
                        and time.monotonic() - last_parent > self.max_idle
                    ):
                        self.idle_exit = True
                        break
                    continue
                except OSError:
                    break  # listener closed by stop()
                try:
                    with conn:
                        if self._serve_connection(conn):
                            self.campaigns_served += 1
                except (ProtocolError, OSError):
                    pass  # a broken parent must not kill the worker
                last_parent = time.monotonic()
        finally:
            self.stop()

    # ------------------------------------------------------------------

    def _refuse(self, conn: socket.socket, error: str) -> bool:
        """Answer BYE with a reason and refuse the connection."""
        try:
            conn.sendall(encode_frame(MSG_BYE, _json_payload({"error": error})))
        except OSError:
            pass
        return False

    def _serve_connection(self, conn: socket.socket) -> bool:
        """Serve one parent; returns True when a campaign was served."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        mtype, payload = read_frame(conn)
        if mtype != MSG_HELLO:
            raise ProtocolError(f"expected HELLO, got message type {mtype}")
        hello = _parse_json(payload, "HELLO")
        version = hello.get("version")
        if version != PROTOCOL_VERSION:
            return self._refuse(
                conn,
                f"protocol version mismatch: parent speaks {version}, "
                f"worker speaks {PROTOCOL_VERSION} (v5 ships each cell's script "
                f"in its TASK — upgrade both peers)",
            )
        parent_nonce = hello.get("nonce")
        if not isinstance(parent_nonce, str) or len(parent_nonce) < 16:
            return self._refuse(
                conn,
                "HELLO carries no handshake nonce — the protocol "
                "authenticates before any task is accepted",
            )
        worker_nonce = _fresh_nonce()
        task_timeout = hello.get("task_timeout")
        if task_timeout is not None and not (
            type(task_timeout) in (int, float) and 0 < task_timeout < float("inf")
        ):
            return self._refuse(conn, f"HELLO carries a malformed task_timeout: {task_timeout!r}")
        welcome = {
            "version": PROTOCOL_VERSION,
            "slots": self.slots,
            "nonce": worker_nonce,
            "proof": _auth_proof(self.secret, "worker", parent_nonce, worker_nonce),
        }
        conn.sendall(encode_frame(MSG_WELCOME, _json_payload(welcome)))
        # The parent must prove itself before any TASK — which names code
        # to import and run — is accepted: the very next frame must be a
        # valid AUTH.
        mtype, payload = read_frame(conn)
        if mtype != MSG_AUTH:
            self.auth_failures += 1
            return self._refuse(
                conn,
                f"authentication required: expected AUTH, got message "
                f"type {mtype} — no task is accepted before the parent "
                f"proves the fleet secret",
            )
        auth = _parse_json(payload, "AUTH")
        expected = _auth_proof(self.secret, "parent", worker_nonce, parent_nonce)
        if not hmac.compare_digest(str(auth.get("proof", "")), expected):
            self.auth_failures += 1
            return self._refuse(
                conn,
                "authentication failed: parent proof does not match this "
                "worker's secret (wrong or missing REPRO_SWEEP_SECRET / "
                "--secret-file?)",
            )

        _relay(conn, self._listener, self.slots, task_timeout)
        return True


# ---------------------------------------------------------------------------
# The parent: one FleetScheduler driven over real sockets
# ---------------------------------------------------------------------------


class _FleetShell(SweepExecutor):
    """One campaign's :class:`FleetScheduler` driven over real sockets.

    One instance runs one campaign (``run_sweep`` builds a fresh executor
    each time): it owns that campaign's sockets, carries out the
    scheduler's actions on them and reports back what they did.  A backend
    adds the dialer: ``_fleet(ctx)`` names the addresses, ``_dial(action)``
    answers ``connected`` (socket :meth:`_adopt`-ed) or ``dial_failed``.
    """

    def run(self, tasks: List[SweepTask], ctx: ExecutorContext) -> BackendRun:
        self.ctx = ctx
        self.task_count = len(tasks)
        self.scheduler = scheduler = FleetScheduler(tasks, ctx, self._fleet(ctx))
        self.socks: Dict[str, socket.socket] = {}
        self.selector = selectors.DefaultSelector()
        interrupted = False
        try:
            while not scheduler.done:
                self._execute(scheduler.tick(time.monotonic()))
                for key, _mask in self.selector.select(timeout=0.2):
                    self._pump(key.data)
        except KeyboardInterrupt:
            # Graceful abort: the journal already holds every completed
            # row; pending cells stay unsent, in-flight rows are dropped.
            interrupted = True
        finally:
            fleet = scheduler.snapshot(time.monotonic())
            self._execute(scheduler.shutdown())
            self.selector.close()
        aborted = scheduler.aborted or interrupted
        return BackendRun(scheduler.rows, aborted, interrupted, scheduler.peak_slots, fleet)

    def _pump(self, address: str) -> None:
        sock = self.socks.get(address)
        if sock is None:
            return  # dropped while an earlier ready socket was handled
        reason = "connection closed"
        try:
            data = sock.recv(1 << 16)
        except OSError as exc:
            data, reason = b"", f"recv failed: {exc}"
        if data:
            self._execute(self.scheduler.received(address, data, time.monotonic()))
        else:
            self._execute(self._lost(address, reason))

    def _execute(self, actions: Iterable[Action]) -> None:
        """Carry out actions in order; what carrying one out reveals (a
        dial's result, a dead socket) goes back to the scheduler and its
        answer joins the queue."""
        queue = deque(actions)
        while queue:
            action = queue.popleft()
            if isinstance(action, Dial):
                queue.extend(self._dial(action))
            elif isinstance(action, Close):
                self._drop(action.address)
            elif action.address in self.socks:  # else: died earlier in this batch
                try:
                    self.socks[action.address].sendall(action.data)
                except OSError as exc:
                    queue.extend(self._lost(action.address, f"send failed: {exc}"))

    def _adopt(self, address: str, sock: socket.socket) -> None:
        sock.settimeout(_SEND_TIMEOUT_S)
        self.socks[address] = sock
        self.selector.register(sock, selectors.EVENT_READ, address)

    def _lost(self, address: str, reason: str) -> List[Action]:
        """The transport at *address* died under us: tell the scheduler."""
        self._drop(address)
        return self.scheduler.closed(address, reason, time.monotonic())

    def _drop(self, address: str) -> None:
        sock = self.socks.pop(address, None)
        if sock is not None:
            self.selector.unregister(sock)
            sock.close()


class TcpExecutor(_FleetShell):
    """The ``tcp`` backend: campaign cells over a ``repro worker`` fleet."""

    def _fleet(self, ctx: ExecutorContext) -> Sequence[str]:
        hosts = default_hosts() if ctx.hosts is None else parse_hosts(ctx.hosts)
        if not hosts:
            raise SweepError(
                "the tcp backend needs a worker fleet: pass hosts= "
                "(--hosts host:port,...) or set REPRO_SWEEP_HOSTS"
            )
        self.secret = resolve_secret(ctx.secret)
        self.hosts = {f"{host}:{port}": (host, port) for host, port in hosts}
        return list(self.hosts)

    def _dial(self, action: Dial) -> List[Action]:
        """One blocking connect + handshake attempt, bounded by the
        action's timeout."""
        address = action.address
        try:
            sock = socket.create_connection(
                self.hosts[address], timeout=action.timeout_s
            )
        except OSError as exc:
            return self.scheduler.dial_failed(
                address, str(exc), False, time.monotonic()
            )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            nonce = _fresh_nonce()
            sock.sendall(
                hello_frame(nonce, self.ctx.meta, self.task_count, self.ctx.task_timeout)
            )
            slots, auth = answer_welcome(*read_frame(sock), self.secret, nonce)
            sock.sendall(auth)
        except BaseException as exc:
            sock.close()
            if not isinstance(exc, (ProtocolError, OSError)):
                raise
            return self.scheduler.dial_failed(
                address, str(exc), isinstance(exc, Refused), time.monotonic()
            )
        self._adopt(address, sock)
        return self.scheduler.connected(address, slots, time.monotonic())


def slot_died(
    scheduler: FleetScheduler, address: str, cause: str, reason: str, now: float
) -> List[Action]:
    """What the owner of a slot process reports on reading its EOF: a dead
    process, not an infrastructure flap.  The cell it took down goes first,
    the way ``repro worker`` reports a dead slot of its — an ERROR frame,
    charged against ``retries`` and never forgiven (``closed`` alone is
    pardoned the moment the slot is re-forked: a process-killing cell would
    run ``retries + 1 + workers`` times)."""
    worker = scheduler.workers.get(address)
    actions: List[Action] = []
    for index in sorted(worker.inflight) if worker else ():
        actions += scheduler.received(address, casualty_frame(index, cause), now)
    return actions + scheduler.closed(address, reason, now)


class LocalExecutor(_FleetShell):
    """The ``parallel`` backend: ``workers`` one-cell slot processes on
    this host, each behind a private :func:`socket.socketpair`.

    Dialling ``slot-k`` forks the process (:func:`_slot_main`) and answers
    ``connected`` at once — no listener, no port, no secret, no handshake.
    The shell owns the processes: it reports their deaths (:meth:`_lost`)
    and reaps them (:meth:`_drop`), so none outlives :meth:`run`.
    """

    def _fleet(self, ctx: ExecutorContext) -> Sequence[str]:
        self.slots: Dict[str, Any] = {}
        return [f"slot-{k}" for k in range(ctx.workers)]

    def _dial(self, action: Dial) -> List[Action]:
        address = action.address
        try:
            sock, slot = _fork_slot(self.ctx.task_timeout, *self.socks.values())
        except OSError as exc:  # back off, retry
            return self.scheduler.dial_failed(
                address, f"cannot start slot process: {exc}", False, time.monotonic()
            )
        self.slots[address] = slot
        self._adopt(address, sock)
        return self.scheduler.connected(address, 1, time.monotonic())

    def _lost(self, address: str, reason: str) -> List[Action]:
        slot = self.slots.pop(address)
        super()._drop(address)
        return slot_died(
            self.scheduler, address, _kill_slot(slot), reason, time.monotonic()
        )

    def _drop(self, address: str) -> None:
        super()._drop(address)
        slot = self.slots.pop(address, None)
        if slot is not None:
            _kill_slot(slot)


__all__ = [
    "LocalExecutor",
    "MSG_TASK",
    "TcpExecutor",
    "WorkerServer",
    "encode_frame",
    "export_task",
    "read_frame",
]
