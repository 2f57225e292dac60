"""Declarative sweep campaigns: grids of independent simulations.

The paper's evaluation — and every figure this repo regenerates — is a
*campaign*: the same testbed recipe executed across a grid of filter-table
sizes, offered loads, loss rates, seeds and scenario scripts.  A
:class:`SweepSpec` enumerates that grid into an ordered list of
:class:`SweepTask` s, each with one canonical JSON encoding
(:func:`export_task`); :func:`repro.sweep.run_sweep` executes them on a
serial, parallel or tcp backend and merges the per-task
:class:`SweepResult` rows back **in task order**, so the merged campaign is
bit-for-bit identical no matter how many workers ran it or in what order
they finished.

Determinism contract (docs/SWEEP.md):

* every task carries ``task.seed = derive_seed(base_seed, task.index)`` —
  a splitmix64 mix, stable across processes and Python versions;
* a cell carries its FSL text (``script=``, plus an optional
  ``scenario=``) as a plain param; the task function compiles it through
  :meth:`repro.core.testbed.Testbed.compile_cached`, which the parent
  warms at enumeration, so a bad script fails before anything runs;
* params and payloads are plain JSON-able values (tuples and enums are
  coerced, anything that cannot be made deterministic — a compiled
  program included — is refused), and a task function is found again by
  ``module:qualname``.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import json
import math
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-task seed: splitmix64 of ``(base_seed, index)``.

    Pure integer arithmetic — no :mod:`random`, no hashing of strings — so
    the value is identical in every worker process, Python build and
    insertion order.  Returned in ``[0, 2**31)`` to stay friendly to any
    seed consumer.
    """
    x = (base_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % (1 << 31)


class SweepError(ReproError):
    """A campaign was mis-specified (not a task failure — those become
    ``FAILED`` rows, never exceptions)."""


#: A task function: module-level (found again by ``module:qualname``),
#: takes the task and returns a plain JSON-able mapping.
TaskFn = Callable[["SweepTask"], Mapping[str, Any]]


def reads_params(
    *names: str, check: Optional[Callable[[Mapping[str, Any]], Optional[str]]] = None
) -> Callable[[TaskFn], TaskFn]:
    """Declare every param a task function reads.

    :meth:`SweepSpec.add` rejects any other key for a declared function —
    in the parent, at enumeration time — so a typo or a removed knob
    (``frame_codec=``) is an error naming it instead of a param that rides
    along unread.  *check*, given a case's params, names what is wrong
    inside them (the keys of a nested mapping) or returns ``None``; ``add``
    raises on its answer at the same time.  A function without a
    declaration stays free-form.
    """

    def declare(fn: TaskFn) -> TaskFn:
        fn.reads_params = frozenset(names)
        fn.check_params = check
        return fn

    return declare


@dataclass
class SweepTask:
    """One cell of the campaign grid, ready to execute in any process."""

    index: int
    name: str
    #: derived from (base_seed, index); the default simulator seed for the
    #: task.  Grid axes may additionally carry an explicit ``seed`` param.
    seed: int
    fn: TaskFn
    params: Dict[str, Any] = field(default_factory=dict)

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


@dataclass
class SweepResult:
    """One merged campaign row.

    ``payload`` (and every field except the wall-clock/attempt accounting)
    is covered by :meth:`canonical`, the byte-identity surface of the
    differential serial-vs-parallel guarantee.  ``wall_seconds`` and
    ``attempts`` are real-world accounting and excluded.
    """

    OK = "OK"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"

    index: int
    name: str
    seed: int
    status: str
    payload: Dict[str, Any] = field(default_factory=dict)
    #: ``ExcType: message`` for FAILED rows (deterministic, canonical).
    error: str = ""
    #: full traceback / crash note (non-canonical: may differ by backend).
    error_detail: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0
    #: row was served by the result cache, not executed (non-canonical).
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == self.OK

    @property
    def virtual_ns(self) -> int:
        """The task's virtual-time cost, when its payload reports one."""
        value = self.payload.get("duration_ns", 0)
        return value if isinstance(value, int) else 0

    def canonical(self) -> Dict[str, Any]:
        """The deterministic projection used for merged-result identity."""
        return {
            "index": self.index,
            "name": self.name,
            "seed": self.seed,
            "status": self.status,
            "payload": self.payload,
            "error": self.error,
        }

    def to_record(self) -> Dict[str, Any]:
        """The full on-disk projection (journal rows, the cache's too):
        canonical fields plus the real-world accounting, so a replayed row
        reconstructs exactly."""
        record = self.canonical()
        record["error_detail"] = self.error_detail
        record["attempts"] = self.attempts
        record["wall_seconds"] = self.wall_seconds
        record["cached"] = self.cached
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SweepResult":
        """Rebuild a row from :meth:`to_record` output (journal replay /
        cache hit).  Raises :class:`SweepError` on malformed records."""
        try:
            return cls(
                index=int(record["index"]),
                name=str(record["name"]),
                seed=int(record["seed"]),
                status=str(record["status"]),
                payload=dict(record["payload"]),
                error=str(record.get("error", "")),
                error_detail=str(record.get("error_detail", "")),
                attempts=int(record.get("attempts", 1)),
                wall_seconds=float(record.get("wall_seconds", 0.0)),
                cached=bool(record.get("cached", False)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SweepError(f"malformed result record: {exc!r}") from None


@dataclass
class SweepOutcome:
    """The merged campaign: rows in task order plus campaign accounting."""

    spec_name: str
    base_seed: int
    backend: str
    workers: int
    rows: List[SweepResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: the backend decided to stop early — fail-fast tripped (even on the
    #: final task) or the campaign was interrupted.  ``rows`` may be a
    #: subset of the grid.
    aborted: bool = False
    #: the parent was interrupted (SIGINT): ``rows`` covers exactly the
    #: journaled/completed rows at the moment of interruption.
    interrupted: bool = False
    #: rows replayed from a resume journal instead of executed.
    resumed: int = 0
    #: rows served by the result cache instead of executed.
    cached_rows: int = 0
    #: rows recorded as ``TIMEOUT`` by the task watchdog.
    timed_out: int = 0
    #: per-worker fleet health and self-healing counters reported by the
    #: ``parallel`` and ``tcp`` executors (``None`` for ``serial``).
    #: Non-canonical: excluded from :meth:`canonical_bytes`.
    fleet: Optional[Dict[str, Any]] = None

    @property
    def failures(self) -> List[SweepResult]:
        return [
            row
            for row in self.rows
            if not row.ok or row.payload.get("passed") is False
        ]

    @property
    def passed(self) -> bool:
        """The campaign ran to completion, every row completed, and no
        scenario payload reported failure.  An aborted (fail-fast or
        interrupted) campaign never passes: its rows are a subset of the
        grid, and a subset cannot vouch for the whole."""
        return not self.aborted and not self.failures

    @property
    def total_task_wall_seconds(self) -> float:
        return sum(row.wall_seconds for row in self.rows)

    @property
    def total_virtual_ns(self) -> int:
        return sum(row.virtual_ns for row in self.rows)

    def canonical_bytes(self) -> bytes:
        """Canonical JSON of all rows — the differential-test identity."""
        return json.dumps(
            [row.canonical() for row in self.rows],
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    def render(self) -> str:
        """Human-readable campaign table (one line per task + totals)."""
        from ..sim import format_time  # local: avoid import at module load

        lines = []
        for row in self.rows:
            if row.ok:
                verdict = row.payload.get("passed")
                detail = (
                    "PASS" if verdict else "FAIL" if verdict is False else "done"
                )
                extra = row.payload.get("end_reason", "")
                if extra:
                    detail += f" ({extra})"
            else:
                detail = f"{row.status} ({row.error})"
            if row.cached:
                detail += " [cached]"
            lines.append(
                f"[{row.index:>3}] {row.name:<36} {detail:<28} "
                f"{format_time(row.virtual_ns):>12} virtual  "
                f"{row.wall_seconds:>7.2f}s wall  x{row.attempts}"
            )
        verdict = "ALL OK" if self.passed else f"{len(self.failures)} FAILED"
        if self.interrupted:
            verdict += " (interrupted: campaign aborted, journaled rows only)"
        elif self.aborted:
            verdict += " (fail-fast: campaign aborted early)"
        extras = []
        if self.resumed:
            extras.append(f"{self.resumed} resumed")
        if self.cached_rows:
            extras.append(f"{self.cached_rows} cached")
        if self.timed_out:
            extras.append(f"{self.timed_out} timed out")
        lines.append(
            f"{'-' * 40} {verdict}: {len(self.rows)} tasks"
            + (f" ({', '.join(extras)})" if extras else "")
            + f", {self.backend}({self.workers}w), "
            f"campaign {self.wall_seconds:.2f}s wall "
            f"(task sum {self.total_task_wall_seconds:.2f}s, "
            f"{format_time(self.total_virtual_ns)} virtual)"
        )
        return "\n".join(lines)


class SweepSpec:
    """An ordered campaign description.

    Cases are added one at a time (:meth:`add`) or as a Cartesian grid
    (:meth:`add_grid`); :meth:`tasks` freezes them into
    :class:`SweepTask` s, deriving seeds and compiling each distinct
    ``script`` param once.
    """

    def __init__(self, name: str, base_seed: int = 0) -> None:
        self.name = name
        self.base_seed = base_seed
        self._cases: List[Dict[str, Any]] = []

    def add(self, name: str, fn: TaskFn, **params: Any) -> "SweepSpec":
        """Append one case; returns self for chaining."""
        if not callable(fn):
            raise SweepError(f"case {name!r}: fn must be callable")
        if getattr(fn, "__name__", "<lambda>") == "<lambda>":
            raise SweepError(
                f"case {name!r}: task functions must be module-level "
                f"(found again by module:qualname), not lambdas"
            )
        accepted = getattr(fn, "reads_params", None)
        if accepted is not None:
            unknown = sorted(set(params) - accepted)
            if unknown:
                raise SweepError(
                    f"case {name!r}: {fn.__name__} reads no param "
                    f"{', '.join(map(repr, unknown))} (accepted: {', '.join(sorted(accepted))})"
                )
            problem = fn.check_params(params) if fn.check_params is not None else None
            if problem is not None:
                raise SweepError(f"case {name!r}: {fn.__name__}: {problem}")
        self._cases.append({"name": name, "fn": fn, "params": dict(params)})
        return self

    def add_grid(
        self,
        fn: TaskFn,
        axes: Mapping[str, Sequence[Any]],
        **fixed: Any,
    ) -> "SweepSpec":
        """Append the Cartesian product of *axes* (insertion-order major).

        Each case is named by its axis point's ``key=value`` pairs; *fixed*
        params are shared by every generated case.
        """
        import itertools

        keys = list(axes.keys())
        for values in itertools.product(*(axes[k] for k in keys)):
            point = dict(zip(keys, values))
            label = ",".join(f"{k}={v}" for k, v in point.items())
            self.add(label, fn, **{**fixed, **point})
        return self

    def tasks(self) -> List[SweepTask]:
        """Freeze the spec into ordered tasks.

        Every param goes to every backend as :func:`coerce_jsonable` makes
        it, keys sorted: a tuple is a list on ``serial`` too.  A
        ``script=<fsl text>`` (plus optional ``scenario=<name>``) stays in
        the params — the cell's task function compiles it — and is compiled
        here first through the testbed's shared compile cache, once per
        distinct text, so a script that does not compile fails the campaign
        at enumeration.
        """
        from ..core.testbed import Testbed  # local: sweep must stay importable early

        tasks: List[SweepTask] = []
        for index, case in enumerate(self._cases):
            params = {
                key: coerce_jsonable(value, f"case {case['name']!r}: params.{key}")
                for key, value in sorted(case["params"].items())
            }
            if "script" in params:
                Testbed.compile_cached(params["script"], params.get("scenario"))
            tasks.append(
                SweepTask(
                    index=index,
                    name=case["name"],
                    seed=derive_seed(self.base_seed, index),
                    fn=case["fn"],
                    params=params,
                )
            )
        return tasks


def coerce_jsonable(value: Any, path: str = "payload") -> Any:
    """Normalise a task payload or param into canonical-JSON-able builtins.

    Tuples become lists, enums their values, subclasses of int, str and
    float the exact builtin, mappings are key-sorted (all as a canonical
    JSON round trip leaves them); anything else non-builtin is rejected so
    nondeterministic reprs never leak into the merge or a cell's encoding.
    """
    if value is None or type(value) in (bool, int, str):
        return value
    if isinstance(value, enum.Enum):  # an IntEnum is an int, a (str, Enum) a str
        return coerce_jsonable(value.value, path)
    if isinstance(value, float) and not math.isfinite(value):
        raise SweepError(f"{path}: non-finite float {value!r} is not JSON")
    for builtin in (int, str, float):  # a subclass as the builtin JSON decodes
        if isinstance(value, builtin):
            return builtin(value)
    if isinstance(value, (list, tuple)):
        return [coerce_jsonable(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise SweepError(f"{path}: non-string mapping key {key!r}")
        return {key: coerce_jsonable(value[key], f"{path}.{key}") for key in sorted(value)}
    raise SweepError(
        f"{path}: must be JSON-able builtins, got "
        f"{type(value).__name__}"
    )


def resolve_fn(name: str) -> TaskFn:
    """The task function ``module:qualname`` names: imported, looked up,
    and a plain function that goes by exactly that name — a closure,
    lambda, ``partial`` or builtin is none.  :class:`SweepError` otherwise."""
    module, _sep, qualname = name.partition(":")
    try:
        fn: Any = importlib.import_module(module)
        for part in qualname.split("."):
            fn = getattr(fn, part)
    except Exception as exc:  # noqa: BLE001 — whatever importing raises
        raise SweepError(f"{name} does not resolve: {exc!r}") from None
    if not isinstance(fn, types.FunctionType) or f"{fn.__module__}:{fn.__qualname__}" != name:
        raise SweepError(f"{name} does not name a module-level task function")
    return fn


def export_task(task: "SweepTask") -> Tuple[bytes, str]:
    """A cell's one encoding: ``(canonical JSON, its SHA-256)``.

    The JSON (the TASK payload) is ``{"fn": "module:qualname", "index",
    "name", "params", "seed"}``, a script's text included; the digest is
    the cell's :func:`task_fingerprint`.  :class:`SweepError` names the
    cell and the function or param path that do not encode.
    """
    fn = task.fn
    name = f"{getattr(fn, '__module__', None)}:{getattr(fn, '__qualname__', None)}"
    try:
        if resolve_fn(name) is not fn:
            raise SweepError(f"{name} names another function")
        params = coerce_jsonable(task.params, "params")
    except SweepError as exc:
        raise SweepError(f"task {task.index} ({task.name!r}) cannot be encoded: {exc}") from None
    body = {"fn": name, "index": task.index, "name": task.name, "params": params, "seed": task.seed}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return payload, hashlib.sha256(payload).hexdigest()


def task_fingerprint(task: "SweepTask") -> str:
    """Identity of one campaign cell: the SHA-256 of its :func:`export_task`
    bytes, so it covers the script text byte for byte — a reformatted
    script moves FLAG_ERROR's reported lines, and its cells re-execute.
    The result-cache key and the journal's per-row identity check: a cell
    whose script, knobs, seed or task function changed is re-executed;
    everything else replays."""
    return export_task(task)[1]


def tasks_of(spec_or_tasks: Any) -> List[SweepTask]:
    """Accept a :class:`SweepSpec` or an explicit task list."""
    if isinstance(spec_or_tasks, SweepSpec):
        return spec_or_tasks.tasks()
    tasks = list(spec_or_tasks)
    for task in tasks:
        if not isinstance(task, SweepTask):
            raise SweepError(f"expected SweepTask, got {type(task).__name__}")
    return tasks


def spec_meta(spec_or_tasks: Any) -> Dict[str, Any]:
    """(name, base_seed) of a spec, with fallbacks for raw task lists."""
    if isinstance(spec_or_tasks, SweepSpec):
        return {"name": spec_or_tasks.name, "base_seed": spec_or_tasks.base_seed}
    return {"name": "tasks", "base_seed": 0}


__all__: Iterable[str] = [
    "SweepError",
    "SweepOutcome",
    "SweepResult",
    "SweepSpec",
    "SweepTask",
    "coerce_jsonable",
    "derive_seed",
    "export_task",
    "reads_params",
    "task_fingerprint",
]
