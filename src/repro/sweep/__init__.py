"""Parallel scenario sweep engine: fanned-out fault campaigns.

The paper's evaluation is built from campaigns — grids of scenarios, seeds,
loss rates and engine configurations run over the same testbed recipe.
This package turns such a grid into an ordered list of tasks, each with
one canonical JSON encoding, executes them serially, on local slot
processes or on a worker fleet, and
merges the rows back deterministically (see docs/SWEEP.md)::

    from repro.sweep import SweepSpec, run_sweep, run_script_task

    spec = SweepSpec("fig5_matrix", base_seed=7)
    spec.add_grid(
        run_script_task,
        axes={"seed": [1, 2, 3], "medium": ["switch", "hub"]},
        script=open("scenarios/fig5_tcp_congestion.fsl").read(),
        workload={"kind": "tcp_bulk", "bytes": 65536},
    )
    outcome = run_sweep(spec, backend="parallel", workers=4)
    assert outcome.passed, outcome.render()
"""

from .cache import ResultCache
from .campaigns import (
    fig7_point_task,
    fig8_point_task,
    run_script_task,
    sleep_task,
    tcp_variant_task,
)
from .journal import JournalError, JournalState, JournalWriter, read_journal
from .runner import (
    DEFAULT_RETRIES,
    HOSTS_ENV,
    SECRET_ENV,
    ExecutorContext,
    SweepExecutor,
    default_backend,
    default_hosts,
    default_workers,
    parse_hosts,
    resolve_secret,
    run_sweep,
)
from .spec import (
    SweepError,
    SweepOutcome,
    SweepResult,
    SweepSpec,
    SweepTask,
    derive_seed,
    task_fingerprint,
)

__all__ = [
    "HOSTS_ENV",
    "SECRET_ENV",
    "default_hosts",
    "parse_hosts",
    "resolve_secret",
    "DEFAULT_RETRIES",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "ResultCache",
    "ExecutorContext",
    "SweepError",
    "SweepExecutor",
    "SweepOutcome",
    "SweepResult",
    "SweepSpec",
    "SweepTask",
    "default_backend",
    "default_workers",
    "derive_seed",
    "fig7_point_task",
    "fig8_point_task",
    "read_journal",
    "run_script_task",
    "run_sweep",
    "sleep_task",
    "task_fingerprint",
    "tcp_variant_task",
]
