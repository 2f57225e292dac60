"""Campaign execution: the front door (:func:`run_sweep`) and its backends.

There are exactly three backends, chosen by name from a fixed table
(:func:`_executor`):

* ``backend="serial"`` runs every task in the calling process, in task
  order — the reference implementation the differential tests compare
  against;
* ``backend="parallel"`` runs one cell at a time in each of ``workers``
  slot processes on this host, each behind a private ``socketpair``;
* ``backend="tcp"`` dispatches cells to a fleet of ``repro worker``
  processes over TCP.

The last two are one executor (:mod:`repro.sweep.remote`, imported when
one of them is first selected: a ``serial`` campaign loads no fleet
code) with two dialers: one job protocol (:mod:`repro.sweep.wire`), one
scheduler and failure model (:mod:`repro.sweep.fleet`).  Because each
task is an independent seeded simulation and rows always merge in task
order, the merged rows are byte-identical across every backend (asserted
in ``tests/sweep/test_runner.py`` and ``tests/sweep/test_remote.py``).

Crash policy: a Python exception inside a task is caught **in the process
executing it** and becomes a deterministic ``FAILED`` row (same row on
every backend).  A process that *dies* under a cell (hard crash,
``os._exit``) takes down that cell and no other: it is re-queued
``retries`` times, then recorded as ``FAILED`` with the crash note.

Durability (docs/SWEEP.md, "Durable campaigns"): ``run_sweep`` can journal
every row to an append-only CRC-checked file as it lands
(:mod:`repro.sweep.journal`), resume an interrupted campaign from that
journal, and serve clean cells from a content-addressed result cache
(:mod:`repro.sweep.cache`).  A per-task wall-clock deadline turns hung
tasks into deterministic ``TIMEOUT`` rows after one retry instead of
stalling the campaign, and SIGINT aborts gracefully: the
journal is already flushed per-row, and the outcome truthfully reports
``aborted``/``interrupted`` covering exactly the journaled rows.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .spec import (
    SweepError,
    SweepOutcome,
    SweepResult,
    SweepTask,
    coerce_jsonable,
    export_task,
    spec_meta,
    tasks_of,
)

#: Bounded retry budget for cells whose worker process dies under them.
DEFAULT_RETRIES = 1

#: A cell that overruns its deadline runs this many more times before it
#: lands as ``TIMEOUT``.
TIMEOUT_RETRIES = 1

# ---------------------------------------------------------------------------
# Deployment settings: the four REPRO_SWEEP_* variables, read at one site
# ---------------------------------------------------------------------------

#: Pool size / worker slots.  An explicit ``workers=`` argument always
#: wins (precedence: argument > env > core-count default).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Backend name.  An explicit ``backend=`` argument always wins
#: (precedence: argument > env > ``"parallel"``).
BACKEND_ENV = "REPRO_SWEEP_BACKEND"

#: The tcp backend's worker fleet; an explicit ``hosts=`` argument always
#: wins.
HOSTS_ENV = "REPRO_SWEEP_HOSTS"

#: Pre-shared fleet secret; an explicit ``secret=``/``--secret-file``
#: always wins (see :func:`resolve_secret`).
SECRET_ENV = "REPRO_SWEEP_SECRET"

_ENV_PREFIX = "REPRO_SWEEP_"
_ENV_NAMES = (WORKERS_ENV, BACKEND_ENV, HOSTS_ENV, SECRET_ENV)


@dataclass(frozen=True)
class _SweepEnv:
    """What the environment says about a campaign's deployment, validated
    as a whole; ``None`` where a variable is unset or empty."""

    workers: Optional[int]
    backend: Optional[str]
    hosts: Optional[List[Tuple[str, int]]]
    secret: Optional[bytes]


def _read_env() -> _SweepEnv:
    """The one place ``REPRO_SWEEP_*`` is read.

    Every variable that is set must be one of the four and must parse: a
    mistyped value, or a name this tier does not know (the timing and
    hedging knobs of earlier versions are constants now), is a
    :class:`SweepError` — never a setting silently ignored.
    """
    found = {
        name: value
        for name, value in os.environ.items()
        if name.startswith(_ENV_PREFIX)
    }
    unknown = sorted(set(found) - set(_ENV_NAMES))
    if unknown:
        raise SweepError(
            f"unknown environment variable(s) {', '.join(unknown)}: the "
            f"sweep tier reads only {', '.join(_ENV_NAMES)} (timing and "
            f"hedging are constants, see docs/SWEEP.md)"
        )
    workers = None
    env = found.get(WORKERS_ENV, "")
    if env != "":
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise SweepError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}")
    backend = found.get(BACKEND_ENV) or None
    if backend is not None:
        _check_backend(backend, BACKEND_ENV)
    hosts = None
    if found.get(HOSTS_ENV, "") != "":
        try:
            hosts = parse_hosts(found[HOSTS_ENV])
        except SweepError as exc:
            raise SweepError(f"{HOSTS_ENV}: {exc}") from None
    secret = found.get(SECRET_ENV, "").encode("utf-8") or None
    return _SweepEnv(workers, backend, hosts, secret)


def default_workers() -> int:
    """Worker-count default: ``REPRO_SWEEP_WORKERS`` when set, else every
    core up to 4 (campaigns are CPU-bound)."""
    return _read_env().workers or max(1, min(4, os.cpu_count() or 1))


def default_backend() -> str:
    """Backend default: ``REPRO_SWEEP_BACKEND`` when set (one of the
    three names — a typo'd env value is a :class:`SweepError`, not a
    silent fallback), else ``"parallel"``."""
    return _read_env().backend or "parallel"


def default_hosts() -> Optional[List[Tuple[str, int]]]:
    """The fleet named by ``REPRO_SWEEP_HOSTS``, or ``None`` when unset."""
    return _read_env().hosts


def resolve_secret(
    secret: Optional[Any] = None, secret_file: Optional[str] = None
) -> Optional[bytes]:
    """The fleet's pre-shared secret, or ``None`` when unconfigured.

    Precedence: explicit *secret* (str or bytes) > *secret_file* (its
    stripped content) > the ``REPRO_SWEEP_SECRET`` environment variable.
    An unreadable or empty secret file is a :class:`SweepError` — a fleet
    that *meant* to authenticate must never silently run open.
    """
    if secret is not None:
        data = secret.encode("utf-8") if isinstance(secret, str) else bytes(secret)
        return data or None
    if secret_file is not None:
        try:
            with open(secret_file, "rb") as handle:
                data = handle.read().strip()
        except OSError as exc:
            raise SweepError(
                f"cannot read secret file {secret_file!r}: {exc}"
            ) from None
        if not data:
            raise SweepError(f"secret file {secret_file!r} is empty")
        return data
    return _read_env().secret


def parse_hosts(value: Any) -> List[Tuple[str, int]]:
    """Normalise a fleet description into ``[(host, port), ...]``.

    Accepts a ``"host:port,host:port"`` string (whitespace around entries
    is ignored), an iterable of such strings, or an iterable of ``(host,
    port)`` pairs.  Mis-specified entries raise :class:`SweepError` —
    same convention as the ``REPRO_SWEEP_WORKERS`` validation: never a
    silent fallback.  Duplicate entries are rejected (each worker serves
    one parent; dialling it twice would deadlock the second connection),
    and IPv6 bracket/colon syntax is rejected with a clear error — the
    fleet syntax supports hostnames and IPv4 addresses only.
    """
    if isinstance(value, str):
        entries: Sequence[Any] = [
            v.strip() for v in value.split(",") if v.strip() != ""
        ]
    else:
        entries = list(value)
    hosts: List[Tuple[str, int]] = []
    seen: Set[Tuple[str, int]] = set()
    for entry in entries:
        if isinstance(entry, tuple) and len(entry) == 2:
            host, port = entry
        elif isinstance(entry, str):
            entry = entry.strip()
            if "[" in entry or "]" in entry:
                raise SweepError(
                    f"worker host {entry!r}: IPv6 bracket syntax is not "
                    f"supported — the fleet syntax takes hostnames or "
                    f"IPv4 addresses ('host:port')"
                )
            host, sep, port = entry.rpartition(":")
            if sep == "" or host == "":
                raise SweepError(
                    f"worker host {entry!r} must be 'host:port' (e.g. "
                    f"127.0.0.1:7777)"
                )
            host = host.strip()
            port = port.strip()
            if ":" in host:
                raise SweepError(
                    f"worker host {entry!r}: multiple ':' separators — "
                    f"IPv6 addresses are not supported by the fleet "
                    f"syntax; use a hostname or IPv4 address"
                )
        else:
            raise SweepError(
                f"worker host entry must be 'host:port' or (host, port), "
                f"got {entry!r}"
            )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise SweepError(
                f"worker host {entry!r}: port must be an integer"
            ) from None
        if not 1 <= port <= 65535:
            raise SweepError(
                f"worker host {entry!r}: port must be in 1..65535, got {port}"
            )
        pair = (str(host), port)
        if pair in seen:
            raise SweepError(
                f"duplicate worker host {pair[0]}:{pair[1]} — each worker "
                f"serves one parent connection; list it once"
            )
        seen.add(pair)
        hosts.append(pair)
    if not hosts:
        raise SweepError("worker host list is empty")
    return hosts


# ---------------------------------------------------------------------------
# Task watchdog
# ---------------------------------------------------------------------------


class TaskDeadlineExceeded(BaseException):
    """Raised inside a task when its wall-clock deadline expires.

    Deliberately a :class:`BaseException`: a task function's blanket
    ``except Exception`` must not be able to swallow the watchdog.
    """


@contextmanager
def _deadline(seconds: Optional[float]):
    """Arm a one-shot wall-clock deadline around the body; raises
    :class:`TaskDeadlineExceeded` in the running frame on expiry.

    Armed *inside* the executing process (SIGALRM interval timer), so it
    works identically on the serial backend and in slot processes, and a
    hung worker frees itself instead of needing to be shot from outside.
    Without ``SIGALRM`` (or off the main thread) it is a no-op."""
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield False
        return

    def _expire(signum, frame):  # noqa: ANN001 — signal handler signature
        raise TaskDeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def timeout_error(task_timeout: float) -> str:
    """The deterministic ``error`` string of a TIMEOUT row."""
    return f"task exceeded {task_timeout:g}s wall-clock deadline"


def execute_task(task: SweepTask, task_timeout: Optional[float] = None) -> SweepResult:
    """Run one task to a result row.  Never raises (except for
    :class:`KeyboardInterrupt`, which must reach the backend's graceful
    abort): exceptions become deterministic ``FAILED`` rows, and a task
    that overruns *task_timeout* seconds — again on its one retry — a
    deterministic ``TIMEOUT`` row, identical under every backend.

    The cell gives its memory back when it ends.  A testbed is a web of
    reference cycles (host and layer back-references, timers bound to
    their owners, the NIC and its driver), so it outlives the cell until
    the cyclic collector next runs.  Every backend runs its cells through
    here, so the collector is scoped to the cell here: ``gc.freeze()``
    parks everything that existed before it, and ``gc.collect()`` after
    it — on every exit, ``KeyboardInterrupt`` included — walks only what
    the cell allocated and frees its testbed.  ``gc.unfreeze()`` then
    moves the parked heap to the oldest generation, so a caller that had
    frozen its own heap finds it unfrozen after its first cell.
    Concurrent campaigns in two threads interleave their freezes, which
    only delays when one cell's garbage is freed.
    """
    gc.freeze()
    try:
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                with _deadline(task_timeout):
                    payload = task.fn(task)
                if payload is None:
                    payload = {}
                payload = coerce_jsonable(dict(payload))
                status, error, detail = SweepResult.OK, "", ""
                break
            except TaskDeadlineExceeded:
                if attempts <= TIMEOUT_RETRIES:
                    continue
                payload = {}
                status = SweepResult.TIMEOUT
                error = timeout_error(task_timeout)
                detail = (
                    f"task {task.index} ({task.name!r}) hit its {task_timeout:g}s "
                    f"deadline on all {attempts} attempts"
                )
                break
            except Exception as exc:  # noqa: BLE001 — isolation is the contract
                payload = {}
                status = SweepResult.FAILED
                error = f"{type(exc).__name__}: {exc}"
                detail = traceback.format_exc()
                break
        return SweepResult(
            index=task.index,
            name=task.name,
            seed=task.seed,
            status=status,
            payload=payload,
            error=error,
            error_detail=detail,
            attempts=attempts,
            wall_seconds=time.perf_counter() - started,
        )
    finally:
        gc.collect()
        gc.unfreeze()


def _is_failure(row: SweepResult) -> bool:
    """The fail-fast trigger: a crashed/timed-out task or a failed
    scenario verdict."""
    return not row.ok or row.payload.get("passed") is False


#: Backends call this as each row lands (journal/cache hook).
RowSink = Callable[[SweepResult], None]


class BackendRun(NamedTuple):
    """What :meth:`SweepExecutor.run` returns — everything the executor
    learned, so nothing is written back into its context."""

    rows: Dict[int, SweepResult]
    aborted: bool  # its own decision: fail-fast tripped, or interrupted
    interrupted: bool
    workers: int  # how many it really had (tcp: the slots its fleet advertised)
    fleet: Optional[Dict[str, Any]]  # the fleet executors' health snapshot


@dataclass
class ExecutorContext:
    """Everything :func:`run_sweep` hands an executor for one campaign:
    inputs only, all set before :meth:`SweepExecutor.run` is called.

    ``workers`` is the requested slot count, which only ``parallel`` acts
    on; ``hosts`` / ``secret`` are ``tcp``'s raw fleet description
    (``None`` falls through to ``REPRO_SWEEP_HOSTS`` / ``_SECRET``);
    ``meta`` is the campaign's ``(name, base_seed)`` so remote workers
    can label what they serve; ``exports`` holds each cell's TASK bytes
    (:func:`~repro.sweep.spec.export_task`), sent as is by the fleet.
    """

    workers: int
    retries: int
    fail_fast: bool
    task_timeout: Optional[float]
    on_row: RowSink
    hosts: Optional[Any] = None
    meta: Optional[Dict[str, Any]] = None
    secret: Optional[Any] = None
    exports: Dict[int, bytes] = field(default_factory=dict)


class SweepExecutor:
    """One campaign execution strategy.

    Implementations override :meth:`run` — take the pending tasks, call
    ``ctx.on_row`` as each row lands, and return a :class:`BackendRun`.
    The contract every backend must keep (asserted differentially):
    healthy tasks produce rows byte-identical to the serial reference's,
    ``KeyboardInterrupt`` is absorbed into a truthful
    ``aborted=interrupted=True`` return (never propagated — the journal's
    end record must still be written), and a row, once begun, is either
    completed or discarded — never half-reported.
    """

    def run(self, tasks: List[SweepTask], ctx: ExecutorContext) -> BackendRun:
        raise NotImplementedError


class SerialExecutor(SweepExecutor):
    """The reference backend: every task in the calling process, in task
    order."""

    def run(self, tasks: List[SweepTask], ctx: ExecutorContext) -> BackendRun:
        rows: Dict[int, SweepResult] = {}
        aborted = interrupted = False
        try:
            for task in tasks:
                row = execute_task(task, ctx.task_timeout)
                rows[task.index] = row
                ctx.on_row(row)
                if ctx.fail_fast and _is_failure(row):
                    aborted = True
                    break  # stop enumerating: later tasks never start
        except KeyboardInterrupt:
            # The in-flight task's partial row is discarded: the outcome
            # covers exactly the rows already journaled.
            aborted = interrupted = True
        return BackendRun(rows, aborted, interrupted, workers=1, fleet=None)


# ---------------------------------------------------------------------------
# The three backends
# ---------------------------------------------------------------------------


def _check_backend(name: str, source: str) -> None:
    """*name*, read from *source*, must be one of the three."""
    if name not in ("serial", "parallel", "tcp"):
        raise SweepError(
            f"unknown sweep backend {name!r} (from {source}): the backends "
            f"are serial, parallel, tcp"
        )


def _executor(backend: str) -> SweepExecutor:
    """A fresh executor per campaign: the fleet shell owns its sockets."""
    if backend == "serial":
        return SerialExecutor()
    # Imported only now: a serial campaign never loads the fleet modules,
    # ``multiprocessing`` or ``selectors``.
    from .remote import LocalExecutor, TcpExecutor

    return LocalExecutor() if backend == "parallel" else TcpExecutor()


def run_sweep(
    spec_or_tasks: Any,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    retries: int = DEFAULT_RETRIES,
    fail_fast: bool = False,
    journal: Optional[str] = None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    task_timeout: Optional[float] = None,
    hosts: Optional[Any] = None,
    secret: Optional[Any] = None,
) -> SweepOutcome:
    """Execute a campaign and merge its rows deterministically.

    *spec_or_tasks* is a :class:`SweepSpec` (compiled to tasks here, in the
    parent) or a prepared task list.  Rows always come back in task order;
    with healthy tasks the merged outcome's :meth:`canonical_bytes` is
    identical across backends, worker counts and completion orders.

    *backend* is ``serial``, ``parallel`` or ``tcp`` (precedence: explicit
    argument > ``REPRO_SWEEP_BACKEND`` > ``parallel``).  *hosts* configures
    the ``tcp`` backend's worker fleet — a ``"host:port,host:port"`` string
    or a list (precedence: explicit argument > ``REPRO_SWEEP_HOSTS``).
    *secret* is the fleet's pre-shared authentication secret (precedence:
    explicit argument > ``REPRO_SWEEP_SECRET``); both peers of the tcp job
    protocol must hold the same secret or the handshake is refused.  An
    explicit *hosts* or *secret* on a backend that dials nobody (the two
    variables may stay set deployment-wide) is a :class:`SweepError`, as
    is *resume* without a *journal*, and so is a cell that does not encode
    (:func:`~repro.sweep.spec.export_task`) unless it runs plain ``serial``.

    *retries* bounds how often a cell is re-queued after the process — or
    the worker connection — executing it died; lost ``retries + 1`` times
    it lands as a ``FAILED`` row (``worker died: …``), and no other cell
    is charged for it.  The serial backend has no process to lose.

    *fail_fast* stops the campaign at the first failed row: the serial
    backend stops enumerating, the fleet backends dispatch nothing further
    (in-flight tasks finish and keep their rows).  ``aborted`` is
    the backend's own abort decision — it is True whenever fail-fast
    tripped or the run was interrupted, even when the failing row was the
    final task.

    Durability knobs:

    *journal* appends every completed row (CRC-checked, fsync'd) to a
    JSONL file; *resume* replays an existing journal at that path first
    and executes only the missing cells.  *cache_dir* is a directory of
    campaign journals (:mod:`repro.sweep.cache`) whose ``OK`` rows serve
    matching cells before anything executes; fresh rows go to *journal*,
    which gets a link in *cache_dir*, or else to the cache's own journal
    there.  *task_timeout* arms a per-task wall-clock deadline: a task
    that overruns it runs once more at once, and overrunning again
    lands as a deterministic ``TIMEOUT`` row.  Replayed and cached rows
    re-enter the task-order merge unchanged, so a resumed or warm-cache
    outcome's canonical bytes are identical to a cold uninterrupted run's.
    """
    # Consulted even when backend= is explicit: a stale REPRO_SWEEP_* name
    # is refused on every campaign, not only where a default is needed.
    env_backend = default_backend()
    if backend is None:
        backend = env_backend
    _check_backend(backend, "backend=")
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if backend != "tcp" and (hosts is not None or secret is not None):
        raise SweepError(
            f"{'hosts' if hosts is not None else 'secret'}= was given, but the "
            f"{backend} backend dials no fleet — only backend='tcp' uses it"
        )
    if resume and journal is None:
        raise SweepError("resume=True needs journal=PATH: there is nothing to resume")
    if retries < 0:
        raise SweepError(
            f"retries must be >= 0, got {retries} (a negative value would "
            f"silently disable the re-queue of a cell whose worker died)"
        )
    if task_timeout is not None:
        if task_timeout <= 0:
            raise SweepError(f"task_timeout must be > 0 seconds, got {task_timeout}")
        task_timeout = float(task_timeout)
    tasks = tasks_of(spec_or_tasks)
    meta = spec_meta(spec_or_tasks)
    started = time.perf_counter()

    # ------------------------------------------------------------------
    # Every cell encoded once, before a journal byte or a dial
    # ------------------------------------------------------------------
    exports: Dict[int, bytes] = {}
    fingerprints: Dict[int, str] = {}
    if backend != "serial" or journal is not None or cache_dir is not None:
        for task in tasks:
            exports[task.index], fingerprints[task.index] = export_task(task)

    prefilled: Dict[int, SweepResult] = {}
    resumed = 0
    writer = None
    if journal is not None:
        from .journal import JournalWriter, read_journal

        exists = os.path.exists(journal) and os.path.getsize(journal) > 0
        if resume and exists:
            state = read_journal(journal)
            if state.meta is not None and (
                state.meta.get("spec_name") != meta["name"]
                or state.meta.get("base_seed") != meta["base_seed"]
            ):
                raise SweepError(
                    f"journal {journal!r} records campaign "
                    f"{state.meta.get('spec_name')!r} (base_seed "
                    f"{state.meta.get('base_seed')}), not {meta['name']!r} "
                    f"(base_seed {meta['base_seed']}) — refusing to mix"
                )
            for index, (fingerprint, row) in state.rows.items():
                if fingerprints.get(index) == fingerprint:
                    row.cached = False
                    prefilled[index] = row
                    resumed += 1
        elif exists and not resume:
            raise SweepError(
                f"journal {journal!r} already exists — resume it "
                f"(resume=True / --resume) or remove the file"
            )
        writer = JournalWriter(journal, append=resume and exists)
        if resume and exists:
            writer.write_resume(resumed)
        else:
            writer.write_campaign(meta["name"], meta["base_seed"], len(tasks))

    cache = None
    cached_rows = 0
    pending = [task for task in tasks if task.index not in prefilled]
    if cache_dir is not None:
        from .cache import ResultCache

        cache = ResultCache(cache_dir)
        still_pending: List[SweepTask] = []
        for task in pending:
            hit = cache.get(task, fingerprints[task.index])
            if hit is not None:
                prefilled[task.index] = hit
                cached_rows += 1
                if writer is not None:
                    writer.write_row(hit, fingerprints[task.index])
            else:
                still_pending.append(task)
        pending = still_pending

    # ------------------------------------------------------------------
    # Execute the remaining cells
    # ------------------------------------------------------------------
    tasks_by_index = {task.index: task for task in tasks}

    # The journal is linked into DIR once it holds a row the cache lacks,
    # so a fully warm run leaves DIR as it was.
    unlinked = cache is not None and writer is not None

    def on_row(row: SweepResult) -> None:
        nonlocal unlinked
        if writer is not None:
            writer.write_row(row, fingerprints[row.index])
            if unlinked and row.ok:
                cache.link(journal)
                unlinked = False
        elif cache is not None:
            cache.put(tasks_by_index[row.index], row, fingerprints[row.index])

    context = ExecutorContext(
        workers=workers,
        retries=retries,
        fail_fast=fail_fast,
        task_timeout=task_timeout,
        on_row=on_row,
        hosts=hosts,
        meta=meta,
        secret=secret,
        exports=exports,
    )
    if fail_fast and any(_is_failure(row) for row in prefilled.values()):
        # A replayed/cached failure already decides the campaign: no
        # executor runs, so there was no worker and there is no fleet.
        ran = BackendRun({}, True, False, workers=0, fleet=None)
    else:
        ran = _executor(backend).run(pending, context)

    merged = {**prefilled, **ran.rows}
    rows = [merged[task.index] for task in tasks if task.index in merged]
    if writer is not None:
        writer.write_end(
            aborted=ran.aborted, interrupted=ran.interrupted, rows=len(rows)
        )
        writer.close()
    if cache is not None:
        cache.close()
    return SweepOutcome(
        spec_name=meta["name"],
        base_seed=meta["base_seed"],
        backend=backend,
        workers=ran.workers,
        rows=rows,
        wall_seconds=time.perf_counter() - started,
        aborted=ran.aborted,
        interrupted=ran.interrupted,
        resumed=resumed,
        cached_rows=cached_rows,
        timed_out=sum(1 for row in rows if row.status == SweepResult.TIMEOUT),
        fleet=ran.fleet,
    )
