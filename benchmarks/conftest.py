"""Shared benchmark utilities: result-table persistence and sweep knobs."""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def sweep_backend():
    """(backend, workers) for campaign fixtures, from the environment.

    ``REPRO_SWEEP_BACKEND`` selects serial/parallel (default parallel).
    Workers stay ``None``: ``run_sweep`` itself now honours
    ``REPRO_SWEEP_WORKERS`` (precedence: explicit arg > env > up to 4
    cores), so the knob no longer needs re-reading here.  Either backend
    yields byte-identical figures — that is the sweep engine's contract —
    so this only trades wall-clock.
    """
    return os.environ.get("REPRO_SWEEP_BACKEND", "parallel"), None


def campaign_header(outcome) -> str:
    """One-line wall-clock provenance for a saved figure table.

    Records the campaign's actual wall time next to the serial-equivalent
    cost (the sum of per-task wall times), so each refreshed results file
    carries its own before/after.
    """
    return (
        f"# campaign: {len(outcome.rows)} tasks via {outcome.backend}"
        f"({outcome.workers}w), {outcome.wall_seconds:.2f}s wall "
        f"(serial-equivalent task sum {outcome.total_task_wall_seconds:.2f}s)"
    )


def save_table(name: str, text: str) -> None:
    """Persist a rendered result table and echo it to stdout.

    Tables land in benchmarks/results/ so EXPERIMENTS.md can reference the
    latest regeneration of each figure.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")
