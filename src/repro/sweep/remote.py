"""The ``tcp`` backend's two processes: ``repro worker`` and the parent shell.

The job protocol itself — frames, handshake, program shipping — is
:mod:`repro.sweep.wire`; every scheduling decision — dispatch, re-queue,
forgiveness, redial, quarantine, hedging, giving up — is the pure
:class:`repro.sweep.fleet.FleetScheduler`.  What is left here is I/O:

* :class:`WorkerServer` (``repro worker``): accept one parent at a time,
  run the worker side of the handshake, execute TASK frames on a local
  process pool, stream ROW / ERROR / GET back and heartbeat.
* :class:`TcpExecutor`: drive one ``FleetScheduler`` over real sockets —
  report ``time.monotonic()``, dial and handshake when it says
  :class:`~repro.sweep.fleet.Dial`, ``recv`` into ``received``, turn EOF
  and failed sends into ``closed``, write what it says to
  :class:`~repro.sweep.fleet.Send`.
"""

from __future__ import annotations

import hmac
import os
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .fleet import Action, Close, Dial, FleetScheduler
from .runner import (
    BackendRun,
    ExecutorContext,
    SweepExecutor,
    Watchdog,
    _pool_context,
    _worker_init,
    default_hosts,
    default_workers,
    execute_task,
    parse_hosts,
    resolve_secret,
)
from .spec import SweepError, SweepTask
from .wire import (
    HEARTBEAT_INTERVAL_S,
    MSG_AUTH,
    MSG_BYE,
    MSG_ERROR,
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
# The worker: one host serving N local slots
# ---------------------------------------------------------------------------


def _slot_init(inherited_fds: Tuple[int, ...]) -> None:
    """Pool-slot initializer.  A forked slot is born holding copies of the
    server's parent connection and listener; while it lives, a SIGKILLed
    server's socket never reaches EOF at the parent and its port cannot
    be rebound.  Close them: the slot talks to the server over the pool's
    own pipes only."""
    _worker_init()
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass


class WorkerServer:
    """``repro worker``: serve campaign cells over N local process slots.

    Listens for one parent at a time (campaigns are sequential); for each
    connection it runs the authenticated v2 handshake (HELLO/WELCOME/
    AUTH — no pickle-bearing frame is deserialised until the parent's
    HMAC proof verifies), spins up a fresh :class:`ProcessPoolExecutor`
    of ``slots`` workers, announces one GET per slot, and then executes
    TASK frames as they arrive — sending a ROW (and a fresh GET) per
    completion and heartbeating in the background.  The per-connection
    program store means a parent pushes each compiled program at most
    once per campaign.

    A slot process that hard-dies breaks the local pool: the casualty is
    reported upstream as an ERROR frame (the parent re-queues it against
    its retry budget) and the pool is rebuilt, so one poisoned cell
    cannot take the host out of the fleet.

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
            self._listener.close()
        except OSError:
            pass

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
        context = _pool_context()
        # Only fork hands descriptors down; a spawned slot inherits none,
        # and those numbers would name something else there.
        inherited = (conn.fileno(), self._listener.fileno()) if context else ()
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

        send_lock = threading.Lock()
        alive = threading.Event()
        alive.set()

        def send(mtype: int, message: Dict[str, Any]) -> None:
            frame = encode_frame(mtype, _json_payload(message))
            with send_lock:
                conn.sendall(frame)

        def report_casualty(index: int, error: str, detail: str) -> None:
            send(MSG_ERROR, {"index": index, "error": error, "detail": detail})

        send(
            MSG_WELCOME,
            {
                "version": PROTOCOL_VERSION,
                "slots": self.slots,
                "nonce": worker_nonce,
                "proof": _auth_proof(self.secret, "worker", parent_nonce, worker_nonce),
            },
        )
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

        def heartbeat() -> None:
            while alive.is_set():
                if self._stop.wait(HEARTBEAT_INTERVAL_S):
                    break
                if not alive.is_set():
                    break
                try:
                    send(MSG_HEARTBEAT, {})
                except OSError:
                    break

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()

        programs: Dict[str, Any] = {}
        pool = self._new_pool(conn)

        def finish(index: int, future: Any) -> None:
            """Completion callback (executor thread): ROW or ERROR, then
            ask for more work."""
            if not alive.is_set():
                return
            try:
                try:
                    row = future.result()
                except BaseException as exc:  # slot process died
                    report_casualty(
                        index,
                        f"worker died: {type(exc).__name__}",
                        f"slot process executing task {index} died: {exc!r}",
                    )
                else:
                    send(MSG_ROW, row.to_record())
                send(MSG_GET, {})
            except OSError:
                alive.clear()  # parent is gone; stop reporting

        try:
            for _ in range(self.slots):
                send(MSG_GET, {})
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
                        # Undeliverable cell: report it instead of dying —
                        # the parent owns the retry/fail decision.
                        report_casualty(
                            index, "worker died: UndeliverableTask", str(exc)
                        )
                        send(MSG_GET, {})
                        continue
                    try:
                        future = pool.submit(execute_task, task, watchdog)
                    except BrokenProcessPool:
                        # A previous casualty broke the pool: rebuild and
                        # retry the submission once on the fresh pool.
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = self._new_pool(conn)
                        future = pool.submit(execute_task, task, watchdog)
                    future.add_done_callback(
                        lambda fut, idx=task.index: finish(idx, fut)
                    )
                elif mtype == MSG_BYE:
                    break
                elif mtype in (MSG_HEARTBEAT, MSG_GET):
                    continue  # tolerated, not part of the parent's grammar
                else:
                    raise ProtocolError(
                        f"unexpected message type {mtype} from parent"
                    )
        except ConnectionLost:
            pass  # parent died (SIGKILL, crash): clean up and re-accept
        finally:
            alive.clear()
            pool.shutdown(wait=False, cancel_futures=True)
        return True


# ---------------------------------------------------------------------------
# The parent: one FleetScheduler driven over real sockets
# ---------------------------------------------------------------------------


class TcpExecutor(SweepExecutor):
    """The ``tcp`` backend: campaign cells over a ``repro worker`` fleet.

    One instance runs one campaign (the registry builds a fresh executor
    per ``run_sweep``): it owns that campaign's sockets, carries out the
    scheduler's actions on them and reports back what the network did.
    """

    def initial_workers(self, workers: Optional[int]) -> int:
        if workers is not None and workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        # The true worker count is the fleet's advertised slot total,
        # known only after the HELLO exchange; 0 is the placeholder.
        return 0

    def run(self, tasks: List[SweepTask], ctx: ExecutorContext) -> BackendRun:
        hosts = default_hosts() if ctx.hosts is None else parse_hosts(ctx.hosts)
        if not hosts:
            raise SweepError(
                "the tcp backend needs a worker fleet: pass hosts= "
                "(--hosts host:port,...) or set REPRO_SWEEP_HOSTS"
            )
        self.ctx = ctx
        self.task_count = len(tasks)
        self.secret = resolve_secret(ctx.secret)
        self.hosts = {f"{host}:{port}": (host, port) for host, port in hosts}
        self.scheduler = scheduler = FleetScheduler(tasks, ctx, list(self.hosts))
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
            self._drop(address)
            self._execute(self.scheduler.closed(address, reason, time.monotonic()))

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
                    self._drop(action.address)
                    queue.extend(
                        self.scheduler.closed(
                            action.address, f"send failed: {exc}", time.monotonic()
                        )
                    )

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
        sock.settimeout(_SEND_TIMEOUT_S)
        self.socks[address] = sock
        self.selector.register(sock, selectors.EVENT_READ, address)
        return self.scheduler.connected(address, slots, time.monotonic())

    def _drop(self, address: str) -> None:
        sock = self.socks.pop(address, None)
        if sock is not None:
            self.selector.unregister(sock)
            sock.close()


__all__ = [
    "MSG_TASK",
    "ProgramRef",
    "TcpExecutor",
    "WorkerServer",
    "encode_frame",
    "export_task",
    "read_frame",
]
