"""Sweep-engine scaling: serial vs process pool vs the tcp fleet backend.

A 16-task fig5 campaign (one 64 KiB TCP transfer per seed) is run on the
serial reference, the 4-worker process pool, and a loopback 2-worker tcp
fleet (2 slots each).  The merged rows must be byte-identical and every
task's *virtual* time unchanged — parallelism may only buy wall-clock.
A separate trivial-task campaign isolates the tcp protocol's dispatch
overhead per cell (frame encode + loopback round-trip + pool submit).

Tables land in benchmarks/results/; the tcp measurements also append to
the repo-root BENCH_SWEEP.json trajectory (an append-only JSON list, one
entry per PR-era run).

``slow``-marked: spawns process pools.  Deselect with ``-m "not slow"``.
"""

import json
import os
import pathlib
import platform
import threading
from datetime import datetime, timezone

import pytest

from conftest import save_table
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import (
    SweepSpec,
    WorkerServer,
    run_script_task,
    run_sweep,
    sleep_task,
)

N_TASKS = 16
WORKERS = 4
N_DISPATCH_TASKS = 64

BENCH_SWEEP = pathlib.Path(__file__).parent.parent / "BENCH_SWEEP.json"


def _sweep_entry(bench: str, note: str = "", **fields) -> dict:
    """A BENCH_SWEEP.json trajectory entry: measurement + provenance."""
    entry = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": platform.node(),
        "python": platform.python_version(),
        "bench": bench,
        "cores": os.cpu_count() or 1,
        **fields,
    }
    if note:
        entry["note"] = note
    return entry


def append_entry(path: pathlib.Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2) + "\n")


#: The bench fleet runs authenticated, like a production fleet would —
#: the handshake HMACs are part of the dispatch overhead being measured.
FLEET_SECRET = "bench-sweep-scaling"


class _Fleet:
    """A loopback worker fleet of in-process servers (real process slots)."""

    def __init__(self, n_workers: int, slots: int):
        self.servers = [
            WorkerServer(slots=slots, secret=FLEET_SECRET)
            for _ in range(n_workers)
        ]
        self.threads = [
            threading.Thread(target=server.serve_forever, daemon=True)
            for server in self.servers
        ]
        for thread in self.threads:
            thread.start()
        self.hosts = [(server.host, server.port) for server in self.servers]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for server in self.servers:
            server.stop()


def scaling_campaign() -> SweepSpec:
    spec = SweepSpec("sweep_scaling", base_seed=0)
    spec.add_grid(
        run_script_task,
        axes={"seed": list(range(N_TASKS))},
        script=tcp_congestion_script(canonical_node_table(2)),
        workload={"kind": "tcp_bulk", "bytes": 64 * 1024},
    )
    return spec


@pytest.mark.slow
class TestSweepScaling:
    def test_parallel_speedup_with_identical_results(self, benchmark):
        spec = scaling_campaign()
        serial = run_sweep(spec, backend="serial")
        parallel = benchmark.pedantic(
            lambda: run_sweep(spec, backend="parallel", workers=WORKERS),
            rounds=1,
            iterations=1,
        )
        assert serial.passed, serial.render()
        assert serial.canonical_bytes() == parallel.canonical_bytes()
        per_task_virtual = [row.virtual_ns for row in serial.rows]
        assert per_task_virtual == [row.virtual_ns for row in parallel.rows]

        cores = os.cpu_count() or 1
        speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
        lines = [
            f"sweep scaling: {N_TASKS}-task fig5 campaign "
            f"(64 KiB tcp_bulk per cell, seeds 0..{N_TASKS - 1})",
            f"host: {cores} cpu core(s)",
            f"{'serial(1w)':<16} {serial.wall_seconds:>8.2f}s wall",
            f"{'parallel(' + str(WORKERS) + 'w)':<16} "
            f"{parallel.wall_seconds:>8.2f}s wall   speedup {speedup:.2f}x",
            "merged rows byte-identical across backends: yes",
            "per-task virtual time identical across backends: yes "
            f"(campaign total {sum(per_task_virtual) / 1e9:.6f}s virtual)",
            "note: each task is one CPU-bound simulation, so the speedup is",
            "bounded by physical cores; a 1-core host can only pay the pool's",
            "process overhead.  The >=2x target at 4 workers needs >=4 cores.",
        ]
        save_table("sweep_scaling", "\n".join(lines))
        # The scaling claim is only physically satisfiable with the cores
        # to back it; on starved hosts the differential identity above is
        # the meaningful assertion.
        if cores >= 4:
            assert speedup >= 2.0, f"expected >=2x on {cores} cores, got {speedup:.2f}x"
        assert parallel.workers == WORKERS

    def test_tcp_dispatch_overhead_and_loopback_scaling(self, benchmark):
        """The distributed tier's two honest numbers: protocol dispatch
        overhead per cell (trivial tasks, 1 worker x 1 slot) and loopback
        fleet scaling on the real fig5 campaign (2 workers x 2 slots).
        Both merged row sets must stay byte-identical to serial; the >=2x
        fleet speedup claim is only asserted with >=4 cores to back it."""
        cores = os.cpu_count() or 1

        # --- dispatch overhead: trivial cells isolate the protocol cost
        trivial = SweepSpec("tcp_dispatch", base_seed=1)
        for i in range(N_DISPATCH_TASKS):
            trivial.add(f"noop{i}", sleep_task, sleep_s=0.0)
        trivial_serial = run_sweep(trivial, backend="serial")
        with _Fleet(n_workers=1, slots=1) as fleet:
            trivial_tcp = run_sweep(
                trivial, backend="tcp", hosts=fleet.hosts, secret=FLEET_SECRET
            )
        assert trivial_serial.canonical_bytes() == trivial_tcp.canonical_bytes()
        overhead_ms = (
            (trivial_tcp.wall_seconds - trivial_serial.wall_seconds)
            / N_DISPATCH_TASKS
            * 1000.0
        )
        # Pathology guard, not a performance claim: a loopback round-trip
        # plus a pool submit must not cost a visible fraction of a second.
        assert overhead_ms < 100.0, f"dispatch overhead {overhead_ms:.1f}ms/task"

        # --- loopback fleet scaling on the real campaign
        spec = scaling_campaign()
        serial = run_sweep(spec, backend="serial")
        with _Fleet(n_workers=2, slots=2) as fleet:
            tcp = benchmark.pedantic(
                lambda: run_sweep(
                    spec, backend="tcp", hosts=fleet.hosts, secret=FLEET_SECRET
                ),
                rounds=1,
                iterations=1,
            )
        assert serial.passed, serial.render()
        assert serial.canonical_bytes() == tcp.canonical_bytes()
        assert tcp.workers == 4  # 2 workers x 2 slots advertised
        speedup = serial.wall_seconds / max(tcp.wall_seconds, 1e-9)

        note = (
            "tcp backend: loopback fleet, HMAC-authenticated handshake, "
            "content-addressed program push"
        )
        append_entry(
            BENCH_SWEEP,
            _sweep_entry(
                "sweep_dispatch",
                note=note,
                backend="tcp",
                tasks=N_DISPATCH_TASKS,
                wall_s=round(trivial_tcp.wall_seconds, 4),
                serial_wall_s=round(trivial_serial.wall_seconds, 4),
                dispatch_overhead_ms_per_task=round(overhead_ms, 3),
            ),
        )
        append_entry(
            BENCH_SWEEP,
            _sweep_entry(
                "sweep_loopback_scaling",
                note=note,
                backend="tcp",
                tasks=N_TASKS,
                workers=2,
                slots_total=tcp.workers,
                wall_s=round(tcp.wall_seconds, 2),
                serial_wall_s=round(serial.wall_seconds, 2),
                speedup=round(speedup, 2),
            ),
        )

        lines = [
            f"tcp backend: {N_TASKS}-task fig5 campaign over a loopback "
            f"fleet (2 workers x 2 slots)",
            f"host: {cores} cpu core(s)",
            f"{'serial(1w)':<16} {serial.wall_seconds:>8.2f}s wall",
            f"{'tcp(4 slots)':<16} {tcp.wall_seconds:>8.2f}s wall   "
            f"speedup {speedup:.2f}x",
            f"dispatch overhead: {overhead_ms:.2f}ms per task "
            f"({N_DISPATCH_TASKS} trivial cells, 1 worker x 1 slot)",
            "merged rows byte-identical to serial: yes",
            "note: loopback slots are real processes on this host, so the",
            "speedup is bounded by physical cores exactly like the pool",
            "backend; the >=2x target at 4 slots needs >=4 cores.  On a",
            "real multi-host fleet the bound is the sum of remote cores.",
        ]
        save_table("sweep_scaling_tcp", "\n".join(lines))
        if cores >= 4:
            assert speedup >= 2.0, (
                f"expected >=2x on {cores} cores, got {speedup:.2f}x"
            )
