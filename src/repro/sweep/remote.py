"""The fleet backends' I/O: ``repro worker``, the slot process, the parent shell.

The job protocol — frames, handshake, program shipping — is
:mod:`repro.sweep.wire`; every scheduling decision is the pure
:class:`repro.sweep.fleet.FleetScheduler`.  What is left here is I/O:

* :func:`_serve_session`, the worker side of an established session (GET
  per slot, heartbeat, PROGRAM / TASK / BYE in, ROW / ERROR out), run
  after the handshake of a ``repro worker`` connection
  (:class:`WorkerServer`, cells on a local pool) and as the whole life of
  a ``parallel`` slot process (:func:`_slot_main`, cells inline);
* :class:`_FleetShell`, which drives one ``FleetScheduler`` over real
  sockets — ``time.monotonic()`` for ``now``, ``recv`` into ``received``,
  EOF and failed sends into ``closed``, its actions carried out — with a
  dialer per backend: :class:`TcpExecutor` (``tcp``: connect, HELLO /
  WELCOME / AUTH) and :class:`LocalExecutor` (``parallel``: a private
  ``socketpair``, a forked slot, and the reaping of it).
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .fleet import Action, Close, Dial, FleetScheduler
from .runner import (
    BackendRun,
    ExecutorContext,
    SweepExecutor,
    Watchdog,
    default_hosts,
    default_workers,
    execute_task,
    parse_hosts,
    resolve_secret,
)
from .spec import SweepError, SweepResult, SweepTask
from .wire import (
    HEARTBEAT_INTERVAL_S,
    MSG_AUTH,
    MSG_BYE,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_PROGRAM,
    MSG_ROW,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameBuffer,
    ProgramRef,
    ProtocolError,
    Refused,
    _auth_proof,
    _json_payload,
    _loads,
    _parse_json,
    answer_welcome,
    casualty_frame,
    encode_frame,
    export_task,
    hello_frame,
    resolve_task,
    split_task,
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
# Slot processes and the session they (or their server) speak
# ---------------------------------------------------------------------------


def _slot_context(*owner_socks: socket.socket) -> Tuple[Any, Tuple[int, ...]]:
    """How slot processes start — ``fork`` (cheap, inherits the compiled
    programs' modules) where the platform has it, else its default — and
    the descriptors one must close at birth: only fork hands the owner's
    sockets down; elsewhere the numbers would name other files."""
    forks = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forks else None)
    return context, tuple(sock.fileno() for sock in owner_socks) if forks else ()


def _slot_init(inherited_fds: Tuple[int, ...]) -> None:
    """Slot-process initializer.  The *parent* owns SIGINT: a terminal
    Ctrl-C reaches the whole process group, and a slot racing the parent's
    graceful abort with its own KeyboardInterrupt would turn deterministic
    rows into nondeterministic FAILED ones.  And a forked slot is born
    holding its owner's other sockets (a ``repro worker``'s listener and
    parent connection, the parent end of every sibling's socketpair);
    while it held them, a SIGKILLed owner's peers would never see EOF."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass


def _serve_session(
    conn: socket.socket, slots: int, start: Callable[[SweepTask, Callable], None]
) -> None:
    """The worker side of an established session, until BYE or EOF.

    Announces one GET per slot, heartbeats in the background, keeps the
    session's program store (a parent pushes each compiled program at most
    once) and hands every TASK to *start(task, finish)*, which runs the
    cell — inline or on a pool — and has ``finish(index, result)`` called,
    from any thread, when it ended.  ``result()`` returns the row, or
    raises if the process executing it died: a ROW or an ERROR goes back,
    then a fresh GET.
    """
    send_lock = threading.Lock()
    over = threading.Event()
    get, beat = encode_frame(MSG_GET, b"{}"), encode_frame(MSG_HEARTBEAT, b"{}")

    def send(frame: bytes) -> None:
        with send_lock:
            conn.sendall(frame)

    def heartbeat() -> None:
        while not over.wait(HEARTBEAT_INTERVAL_S):
            try:
                send(beat)
            except OSError:
                break

    def finish(index: int, result: Callable[[], SweepResult]) -> None:
        if over.is_set():
            return
        try:
            try:
                row = result()
            except BaseException as exc:  # noqa: BLE001 — its process died
                send(casualty_frame(index, f"slot process died ({exc!r})"))
            else:
                send(encode_frame(MSG_ROW, _json_payload(row.to_record())))
            send(get)
        except OSError:
            over.set()  # parent is gone; stop reporting

    programs: Dict[str, Any] = {}
    threading.Thread(target=heartbeat, daemon=True).start()
    try:
        for _ in range(slots):
            send(get)
        while True:
            mtype, payload = read_frame(conn)
            if mtype == MSG_PROGRAM:
                shipment = _loads(payload, "PROGRAM")
                programs[str(shipment["hash"])] = shipment["program"]
            elif mtype == MSG_TASK:
                index, pickled = split_task(payload)
                try:
                    task = resolve_task(_loads(pickled, "TASK"), programs)
                except ProtocolError as exc:
                    # Report it instead of dying — the parent owns the
                    # retry/fail decision.
                    send(casualty_frame(index, f"undeliverable task ({exc})"))
                    send(get)
                    continue
                start(task, finish)
            elif mtype == MSG_BYE:
                break
            elif mtype not in (MSG_HEARTBEAT, MSG_GET):  # those: tolerated
                raise ProtocolError(f"unexpected message type {mtype} from parent")
    except ConnectionLost:
        pass  # parent died (SIGKILL, crash): the session is over
    finally:
        over.set()


def _slot_main(
    conn: socket.socket, inherited_fds: Tuple[int, ...], watchdog: Optional[Watchdog]
) -> None:
    """A ``parallel`` slot process: one session over its end of a private
    socketpair (no handshake: nobody else can hold the other end), one cell
    at a time, inline.  BYE or EOF — the parent died — ends both."""
    _slot_init(inherited_fds)

    def start(task: SweepTask, finish: Callable) -> None:
        finish(task.index, lambda: execute_task(task, watchdog))

    try:
        _serve_session(conn, 1, start)
    except (ProtocolError, OSError):
        pass  # a broken parent needs no traceback from every slot


class WorkerServer:
    """``repro worker``: serve campaign cells over N local process slots.

    Listens for one parent at a time (campaigns are sequential); for each
    connection it runs the authenticated v2 handshake (HELLO/WELCOME/
    AUTH — no pickle-bearing frame is deserialised until the parent's
    HMAC proof verifies), then :func:`_serve_session` with cells executed
    on a fresh :class:`ProcessPoolExecutor` of ``slots`` workers.

    A slot process that hard-dies breaks that pool: the casualty goes
    upstream as an ERROR frame (charged to the cell's retry budget) and
    the pool is rebuilt, so one poisoned cell cannot take the host out of
    the fleet.

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

    def _new_pool(self, conn: socket.socket) -> ProcessPoolExecutor:
        context, inherited = _slot_context(conn, self._listener)
        return ProcessPoolExecutor(
            max_workers=self.slots,
            mp_context=context,
            initializer=_slot_init,
            initargs=(inherited,),
        )

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
                f"worker speaks {PROTOCOL_VERSION} (v2 added the "
                f"authenticated handshake — upgrade both peers)",
            )
        parent_nonce = hello.get("nonce")
        if not isinstance(parent_nonce, str) or len(parent_nonce) < 16:
            return self._refuse(
                conn,
                "HELLO carries no handshake nonce — the v2 protocol "
                "authenticates before any task is accepted",
            )
        worker_nonce = _fresh_nonce()
        watchdog = None
        config = hello.get("watchdog")
        if config:
            watchdog = Watchdog(
                timeout=float(config["timeout"]),
                retries=int(config.get("retries", 0)),
                backoff=float(config.get("backoff", 0.0)),
            )
        welcome = {
            "version": PROTOCOL_VERSION,
            "slots": self.slots,
            "nonce": worker_nonce,
            "proof": _auth_proof(self.secret, "worker", parent_nonce, worker_nonce),
        }
        conn.sendall(encode_frame(MSG_WELCOME, _json_payload(welcome)))
        # The parent must prove itself before ANY pickle-bearing frame is
        # deserialised: the very next frame must be a valid AUTH.
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

        pool = self._new_pool(conn)

        def start(task: SweepTask, finish: Callable) -> None:
            nonlocal pool
            try:
                future = pool.submit(execute_task, task, watchdog)
            except BrokenProcessPool:
                # A previous casualty broke the pool: rebuild and retry
                # the submission once on the fresh pool.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = self._new_pool(conn)
                future = pool.submit(execute_task, task, watchdog)
            future.add_done_callback(lambda done: finish(task.index, done.result))

        try:
            _serve_session(conn, self.slots, start)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return True


# ---------------------------------------------------------------------------
# The parent: one FleetScheduler driven over real sockets
# ---------------------------------------------------------------------------


class _FleetShell(SweepExecutor):
    """One campaign's :class:`FleetScheduler` driven over real sockets.

    One instance runs one campaign (the registry builds a fresh executor
    per ``run_sweep``): it owns that campaign's sockets, carries out the
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
            ctx.fleet_stats = scheduler.snapshot(time.monotonic())
            self._execute(scheduler.shutdown())
            self.selector.close()
        return scheduler.rows, scheduler.aborted or interrupted, interrupted

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

    def initial_workers(self, workers: Optional[int]) -> int:
        if workers is not None and workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        # The true worker count is the fleet's advertised slot total,
        # known only after the HELLO exchange; 0 is the placeholder.
        return 0

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
                hello_frame(nonce, self.ctx.meta, self.task_count, self.ctx.watchdog)
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
    the way ``repro worker`` reports a dead pool slot — an ERROR frame,
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
        ours, theirs = socket.socketpair()
        context, inherited = _slot_context(ours, *self.socks.values())
        slot = context.Process(
            target=_slot_main, args=(theirs, inherited, self.ctx.watchdog)
        )
        try:
            slot.start()
        except OSError as exc:  # out of processes or memory: back off, retry
            ours.close()
            return self.scheduler.dial_failed(
                address, f"cannot start slot process: {exc}", False, time.monotonic()
            )
        finally:
            theirs.close()
        self.slots[address] = slot
        self._adopt(address, ours)
        return self.scheduler.connected(address, 1, time.monotonic())

    def _lost(self, address: str, reason: str) -> List[Action]:
        slot = self.slots[address]
        self._drop(address)
        cause = f"slot process {slot.pid} died (exit code {slot.exitcode})"
        return slot_died(self.scheduler, address, cause, reason, time.monotonic())

    def _drop(self, address: str) -> None:
        super()._drop(address)
        slot = self.slots.pop(address, None)
        if slot is not None:
            # Idle, it is leaving anyway (BYE, EOF); mid-cell — an abort,
            # an interrupt, a lost hedge — its row is no longer wanted.
            slot.kill()
            slot.join()


__all__ = [
    "LocalExecutor",
    "MSG_TASK",
    "ProgramRef",
    "TcpExecutor",
    "WorkerServer",
    "encode_frame",
    "export_task",
    "read_frame",
]
