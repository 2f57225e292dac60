"""The ``parallel`` and ``tcp`` backends' scheduler as a pure state machine.

:class:`FleetScheduler` decides everything about a fanned-out campaign —
which cell goes to which worker, what a lost connection costs, when to
redial, whom to quarantine, which straggler to hedge, when the fleet is
beyond saving — and touches nothing: no socket, no selector, no clock,
no environment.  Whoever drives it reports **events**, each stamped with
the driver's own ``now`` (seconds on any monotonic scale):

* ``connected(address, slots, now)`` — a dial the scheduler asked for
  ended in an authenticated handshake;
* ``dial_failed(address, reason, permanent, now)`` — it did not;
  *permanent* marks a typed refusal (:class:`~repro.sweep.wire.Refused`)
  that redialling cannot heal;
* ``received(address, data, now)`` — bytes arrived, in any fragmentation;
* ``closed(address, reason, now)`` — the transport died (EOF, reset, a
  failed send);
* ``tick(now)`` — time passed;

and every event returns the **actions** it caused, plain data for the
driver to carry out in order: :class:`Send`, :class:`Dial`,
:class:`Close`.  Rows land through ``ctx.on_row`` as they complete, and
:meth:`FleetScheduler.tick` raises :class:`~repro.sweep.spec.SweepError`
once no worker has been usable for :data:`FLEET_WINDOW_S`.

Two drivers exist: the shell in :mod:`repro.sweep.remote` (real sockets,
``time.monotonic``) and ``tests/sweep/fleet_sim.py`` (model workers on a
:class:`repro.sim.Simulator`, faults scripted at protocol events, a ten
second timeout costing microseconds).  The policy, per docs/SWEEP.md
"Fleet security & resilience":

* **Pull scheduling.**  A worker sends one GET per idle slot; cells go
  out lowest index first, one per worker per pass.
* **Dynamic membership.**  Every host is due for a dial from the start;
  a lost or unreachable one is redialled with exponential backoff, so a
  worker that restarts — or starts late — joins mid-campaign.  A lost
  worker's in-flight cells re-queue, each charged one loss against the
  ``retries`` budget; when that worker rejoins healthy, one loss per
  (cell, worker) pair is forgiven.  Slot crashes reported by the slot's
  owner (ERROR frames) are never forgiven — the cell is the prime suspect.
* **Health and quarantine** (:class:`~repro.sweep.health.FleetHealth`):
  repeat offenders get no work and no redial until their quarantine
  expires.
* **Straggler hedging.**  Once :data:`HEDGE_MIN_ROWS` rows give a p95,
  an in-flight cell running past :data:`HEDGE_FACTOR` times it is copied
  to an idle slot on another worker; the first row wins and the loser is
  dropped.
* **Totality.**  Nothing a worker sends can raise out of the scheduler:
  undecodable, oversized, corrupt or out-of-grammar bytes lose that
  worker and nothing else.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from .health import FleetHealth
from .runner import ExecutorContext, _is_failure
from .spec import SweepError, SweepResult, SweepTask
from .wire import (
    MSG_BYE,
    MSG_ERROR,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_ROW,
    FrameBuffer,
    ProtocolError,
    _parse_json,
    encode_frame,
    task_frame,
)

#: A connected worker silent for this long (five heartbeat intervals) is
#: declared lost.
HEARTBEAT_TIMEOUT_S = 10.0

#: How long a campaign with work outstanding survives with *no* connected
#: worker — before the first one ever joins, or after the last one died —
#: until :meth:`FleetScheduler.tick` raises.
FLEET_WINDOW_S = 10.0

#: Hedging cannot change canonical bytes (results are deterministic,
#: duplicates are dropped), so the only cost is an occasionally wasted
#: slot: a cell is hedged once it has run HEDGE_FACTOR x the p95 of at
#: least HEDGE_MIN_ROWS landed rows.
HEDGE_FACTOR = 2.0
HEDGE_MIN_ROWS = 8

#: An in-flight cell is never hedged before running at least this long.
_HEDGE_FLOOR_S = 0.1

#: At most this many concurrent copies of one cell (original + hedges).
_HEDGE_MAX_COPIES = 2

#: Redial backoff: _REDIAL_BASE_S after the first failure, doubling per
#: failure up to _REDIAL_CAP_S; each attempt gives the worker
#: DIAL_TIMEOUT_S to finish the handshake, so a half-up host cannot stall
#: a blocking driver for long.
_REDIAL_BASE_S = 0.25
_REDIAL_CAP_S = 5.0
DIAL_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class Send:
    """Write *data* (whole frames) to the connection at *address*; a
    write that fails is reported back as ``closed``."""

    address: str
    data: bytes


@dataclass(frozen=True)
class Dial:
    """Connect to *address* and run the handshake within *timeout_s*;
    answer with ``connected`` or ``dial_failed``."""

    address: str
    timeout_s: float


@dataclass(frozen=True)
class Close:
    """Drop the connection at *address*; no event is expected back."""

    address: str


Action = Union[Send, Dial, Close]


@dataclass
class _Worker:
    """Scheduler-side state for one live connection."""

    slots: int
    #: when the last complete frame arrived.
    last_seen: float
    idle: int = 0
    #: task index -> when it was dispatched on THIS connection.
    inflight: Dict[int, float] = field(default_factory=dict)
    buffer: FrameBuffer = field(default_factory=FrameBuffer)


def _decode_row(payload: bytes) -> SweepResult:
    try:
        row = SweepResult.from_record(_parse_json(payload, "ROW"))
    except ProtocolError:
        raise
    except SweepError as exc:
        raise ProtocolError(f"undecodable ROW payload: {exc}") from None
    if not math.isfinite(row.wall_seconds):
        raise ProtocolError(f"ROW reports wall_seconds={row.wall_seconds}")
    return row


class FleetScheduler:
    """One campaign's self-healing pull-based dispatch, events in and
    actions out (see the module docstring)."""

    def __init__(
        self, tasks: Sequence[SweepTask], ctx: ExecutorContext, addresses: Sequence[str]
    ) -> None:
        self.ctx = ctx
        self.tasks = {task.index: task for task in tasks}
        #: indices not in flight and without a row — a heap, so dispatch
        #: and every re-queue keep lowest-index-first order.
        self.pending: List[int] = sorted(self.tasks)
        self.rows: Dict[int, SweepResult] = {}
        self.aborted = False
        self.addresses = list(addresses)
        self.workers: Dict[str, _Worker] = {}
        #: the most slots connected at once: the campaign's worker count.
        self.peak_slots = 0
        self.health = FleetHealth()
        self.stats = {
            "rejoins": 0,
            "requeues": 0,
            "forgiven_losses": 0,
            "hedges": 0,
            "hedge_duplicates": 0,
        }
        #: when each unconnected host is next due for a dial: all of them
        #: at once, from the first tick.
        self._dial_at = {address: -math.inf for address in self.addresses}
        self._backoff: Dict[str, float] = {}
        self._dialing: Set[str] = set()
        #: each host's last dial failure, and the hosts whose failure was a
        #: refusal for good.
        self._dial_errors: Dict[str, str] = {}
        self._refused: Set[str] = set()
        self._admitted = False
        self._down_since: Optional[float] = None
        #: one entry per loss charged to a cell and not forgiven: the lost
        #: worker's address, or None for a slot crash the worker reported
        #: itself (never forgiven).  Its length is what ``retries`` bounds.
        self._charges: Dict[int, List[Optional[str]]] = {}
        #: (task, worker) pairs already forgiven — one flap, one pardon.
        self._forgiven: Dict[int, Set[str]] = {}
        self._started: Dict[int, float] = {}
        #: dispatch-to-row times as the parent saw them; feeds the p95.
        self._durations: List[float] = []
        self._out: List[Action] = []

    # -- events ---------------------------------------------------------

    def connected(self, address: str, slots: int, now: float) -> List[Action]:
        """Admit a freshly handshaken worker; a rejoin forgives the
        connection losses previously charged to this address."""
        self._dialing.discard(address)
        self.workers[address] = _Worker(slots=slots, last_seen=now)
        self._admitted = True
        self._down_since = None
        self._backoff.pop(address, None)
        if self.health.record_connect(address):
            self.stats["rejoins"] += 1
            self._forgive_losses(address)
        self.peak_slots = max(
            self.peak_slots, sum(worker.slots for worker in self.workers.values())
        )
        return self._dispatch(now)

    def dial_failed(
        self, address: str, reason: str, permanent: bool, now: float
    ) -> List[Action]:
        self._dialing.discard(address)
        self._dial_errors[address] = f"{address}: {reason}"
        if permanent:
            # A wrong secret or an old peer never heals by redialling:
            # the host is written off for the campaign.
            self._refused.add(address)
        else:
            self._schedule_dial(address, now)
        return self._dispatch(now)

    def received(self, address: str, data: bytes, now: float) -> List[Action]:
        worker = self.workers.get(address)
        if worker is None:
            return []  # late bytes from a connection already written off
        worker.buffer.feed(data)
        try:
            while self.workers.get(address) is worker:
                frame = worker.buffer.next_frame()
                if frame is None:
                    break
                worker.last_seen = now
                self._handle_frame(address, worker, frame[0], frame[1], now)
        except ProtocolError as exc:
            self._lose(address, str(exc), now)
            self._out.append(Close(address))
        return self._dispatch(now)

    def closed(self, address: str, reason: str, now: float) -> List[Action]:
        self._lose(address, reason, now)
        return self._dispatch(now)

    def tick(self, now: float) -> List[Action]:
        """Judge silence, start every dial that is due, and raise
        :class:`SweepError` when the fleet has been unusable too long."""
        if self.done:
            return []
        for address, worker in list(self.workers.items()):
            silent = now - worker.last_seen
            if silent > HEARTBEAT_TIMEOUT_S:
                self._lose(
                    address,
                    f"missed heartbeats for {silent:.1f}s "
                    f"(timeout {HEARTBEAT_TIMEOUT_S:g}s)",
                    now,
                )
                self._out.append(Close(address))
        self._check_fleet(now)  # before any Dial is queued: none outlives a raise
        if not self.aborted:
            for address in self.addresses:
                if (
                    address not in self.workers
                    and address not in self._dialing
                    and address not in self._refused
                    and now >= self._dial_at[address]
                ):
                    self._dialing.add(address)
                    self._out.append(Dial(address, DIAL_TIMEOUT_S))
        return self._dispatch(now)

    def shutdown(self) -> List[Action]:
        """BYE and close every live connection (end of campaign)."""
        for address in self.workers:
            self._out.append(Send(address, encode_frame(MSG_BYE, b"{}")))
            self._out.append(Close(address))
        self.workers.clear()
        actions, self._out = self._out, []
        return actions

    # -- queries --------------------------------------------------------

    @property
    def done(self) -> bool:
        if self.aborted:
            return not any(worker.inflight for worker in self.workers.values())
        return len(self.rows) == len(self.tasks)

    def snapshot(self, now: float) -> Dict[str, Any]:
        """What the campaign outcome reports as ``fleet``: per-worker
        health (MetricsRegistry snapshot + quarantine state) plus the
        scheduler's own self-healing counters."""
        return {
            "workers": self.health.snapshot(now),
            "scheduler": {key: self.stats[key] for key in sorted(self.stats)},
        }

    # -- membership -----------------------------------------------------

    def _schedule_dial(self, address: str, now: float) -> None:
        backoff = self._backoff.get(address, _REDIAL_BASE_S)
        self._dial_at[address] = now + max(
            backoff, self.health.quarantine_remaining(address, now)
        )
        self._backoff[address] = min(backoff * 2, _REDIAL_CAP_S)

    def _lose(self, address: str, reason: str, now: float) -> None:
        """Declare a worker lost: re-queue its in-flight cells, charge the
        losses to this address (forgivable on rejoin), score its health
        and schedule a redial."""
        worker = self.workers.pop(address, None)
        if worker is None:
            return
        self.health.record_failure(address, "loss", now)
        for index in sorted(worker.inflight):
            if index not in self.rows and not self._in_flight(index):
                self._record_casualty(
                    index, f"worker {address} lost: {reason}", now, charge=address
                )
        self._schedule_dial(address, now)
        if not self.workers:
            self._down_since = now

    def _forgive_losses(self, address: str) -> None:
        """A worker that died and rejoined healthy was an infrastructure
        flap, not a poisonous cell: refund one charged loss per (cell,
        worker) pair for cells that have not yet produced a row."""
        for index, charges in self._charges.items():
            pardoned = self._forgiven.setdefault(index, set())
            if index not in self.rows and address in charges and address not in pardoned:
                charges.remove(address)
                pardoned.add(address)
                self.stats["forgiven_losses"] += 1

    def _check_fleet(self, now: float) -> None:
        """Raise only when the *whole* fleet has been unusable for the
        window with work still outstanding — a single sick worker (or a
        restart in progress) never fails the campaign."""
        if self.workers or self.aborted:
            return
        if self._down_since is None:
            self._down_since = now
        hopeless = all(address in self._refused for address in self.addresses)
        if not hopeless and now - self._down_since < FLEET_WINDOW_S:
            return
        if not self._admitted:
            errors = [
                self._dial_errors[address]
                for address in self.addresses
                if address in self._dial_errors
            ]
            raise SweepError(
                "the fleet could not reach any worker: "
                + "; ".join(errors or ["no hosts"])
            )
        how = (
            "no host can rejoin: "
            + "; ".join(sorted(self._dial_errors[a] for a in self._refused))
            if hopeless
            else f"none rejoined within {FLEET_WINDOW_S:g}s (journaled rows "
            f"are safe; resume with a live fleet)"
        )
        raise SweepError(
            f"the fleet lost every worker with "
            f"{len(self.tasks) - len(self.rows)} task(s) unfinished and {how}"
        )

    # -- casualties and rows ---------------------------------------------

    def _in_flight(self, index: int) -> bool:
        """A copy of the cell is still running on some live connection."""
        return any(index in worker.inflight for worker in self.workers.values())

    def _record_casualty(
        self, index: int, note: str, now: float, charge: Optional[str] = None
    ) -> None:
        """Charge the cell one lost execution and re-queue it — or, once
        the budget (``retries`` re-queues) is spent, land the
        deterministic FAILED row instead."""
        charges = self._charges.setdefault(index, [])
        charges.append(charge)
        if len(charges) <= self.ctx.retries:
            heapq.heappush(self.pending, index)
            self.stats["requeues"] += 1
            return
        task = self.tasks[index]
        self._land(
            SweepResult(
                index, task.name, task.seed, SweepResult.FAILED,
                error="worker died: connection lost",
                error_detail=f"task {index} ({task.name!r}) lost {len(charges)} "
                f"worker(s); last: {note}",
                attempts=len(charges),
                wall_seconds=max(0.0, now - self._started.get(index, now)),
            )
        )

    def _land(self, row: SweepResult) -> None:
        self.rows[row.index] = row
        self.ctx.on_row(row)
        if self.ctx.fail_fast and _is_failure(row):
            self.aborted = True

    def _handle_frame(
        self, address: str, worker: _Worker, mtype: int, payload: bytes, now: float
    ) -> None:
        if mtype == MSG_GET:
            worker.idle += 1
        elif mtype == MSG_ROW:
            row = _decode_row(payload)
            if worker.inflight.pop(row.index, None) is None:
                return  # unsolicited, or a second copy of a row: drop
            self.health.record_row(address, row.wall_seconds)
            if row.index in self.rows:
                # The losing copy of a hedged cell (or a cell already
                # FAILED by the retry budget): deterministic tasks make it
                # the row that landed, so it is dropped.
                self.stats["hedge_duplicates"] += 1
                return
            self._durations.append(now - self._started[row.index])
            self._land(row)
        elif mtype == MSG_ERROR:
            report = _parse_json(payload, "ERROR")
            index = report.get("index")
            if not isinstance(index, int):
                raise ProtocolError(f"ERROR frame names no cell: {index!r}")
            if worker.inflight.pop(index, None) is None or index in self.rows:
                return
            # A slot crash is the cell's own doing until proven otherwise:
            # it burns the retry budget and is never forgiven on rejoin.
            self.health.record_failure(address, "error", now)
            if self._in_flight(index):
                return  # a hedged copy is still running elsewhere
            self._record_casualty(
                index,
                f"worker {address} reported: "
                f"{report.get('detail') or report.get('error')}",
                now,
            )
        elif mtype == MSG_HEARTBEAT:
            self.health.record_heartbeat(address, now)
        elif mtype == MSG_BYE:
            self._lose(address, "worker said BYE mid-campaign", now)
            self._out.append(Close(address))
        else:
            raise ProtocolError(f"unexpected message type {mtype} from worker")

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, now: float) -> List[Action]:
        """Hand pending cells to idle slots, hedge once none are pending,
        and return every action queued since the last event."""
        if not self.aborted:
            progress = True
            while progress and self.pending and not self.aborted:
                progress = False
                for address, worker in self.workers.items():
                    if not self.pending or self.aborted:
                        break
                    if worker.idle > 0 and not self.health.is_quarantined(
                        address, now
                    ):  # connected but benched workers get no new work
                        self._assign(address, worker, heapq.heappop(self.pending), now)
                        progress = True
            if not self.pending:
                self._hedge_stragglers(now)
        actions, self._out = self._out, []
        return actions

    def _assign(self, address: str, worker: _Worker, index: int, now: float) -> None:
        """Ship one cell to one idle slot: the bytes ``run_sweep`` encoded,
        the same on every retry and hedge."""
        self._out.append(Send(address, task_frame(self.ctx.exports[index])))
        worker.idle -= 1
        worker.inflight[index] = now
        self._started.setdefault(index, now)

    def _hedge_stragglers(self, now: float) -> None:
        """Speculatively re-dispatch the slowest in-flight cells to idle
        slots on other workers.  First completion wins; the duplicate row
        is dropped when it arrives."""
        if len(self._durations) < HEDGE_MIN_ROWS:
            return
        ordered = sorted(self._durations)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        threshold = max(HEDGE_FACTOR * p95, _HEDGE_FLOOR_S)
        #: per in-flight cell: who runs a copy, dispatched when.
        holders: Dict[int, Dict[str, float]] = {}
        for address, worker in self.workers.items():
            for index, dispatched in worker.inflight.items():
                holders.setdefault(index, {})[address] = dispatched
        stragglers = sorted(
            (
                (now - min(copies.values()), index)
                for index, copies in holders.items()
                if index not in self.rows and len(copies) < _HEDGE_MAX_COPIES
            ),
            reverse=True,
        )
        for elapsed, index in stragglers:
            if elapsed <= threshold:
                break
            for address, worker in self.workers.items():
                if (
                    worker.idle > 0
                    and address not in holders[index]
                    and not self.health.is_quarantined(address, now)
                ):
                    self._assign(address, worker, index, now)
                    self.stats["hedges"] += 1
                    break
