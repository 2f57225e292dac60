"""Per-layer figures taken from outside, without wrappers.

Each probe times one public function of a layer in a tight loop and
returns ``{metric name: value}``.  A workload's traced pass runs the probes
of the layers that workload exercises (``PROBES``); on every other workload
those metrics read 0 — the layer is bypassed there.
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict

from repro.bench.fig7 import fig7_script
from repro.bench.frames import measure_hotpath_point
from repro.bench.harness import two_node_testbed
from repro.core.fsl import compile_text
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import ResultCache, run_sweep, task_fingerprint
from repro.sweep.journal import JournalWriter, encode_record, read_journal
from repro.sweep.remote import MSG_TASK, encode_frame, export_task

from workloads import FaultCampaign, FleetDispatch, Trivial, Workload, fault_spec, trivial_spec


def _median_s(fn: Callable[[], object], repeats: int) -> float:
    """Median host seconds of *fn* over *repeats* calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _mean_us(fn: Callable[[int], object], count: int) -> float:
    """Mean host microseconds of ``fn(i)`` over ``i in range(count)``."""
    started = time.perf_counter()
    for index in range(count):
        fn(index)
    return (time.perf_counter() - started) * 1e6 / count


def codec(workload: Workload) -> Dict[str, float]:
    point = measure_hotpath_point("fast", seed=workload.seed)
    return {"net.codec.frames_per_s": point.frames / point.wall_s}


def scenario_setup(workload: Workload) -> Dict[str, float]:
    scripts = [fig7_script(), tcp_congestion_script(canonical_node_table(2))]
    return {
        "core.fsl.compile_ms": _median_s(lambda: [compile_text(s) for s in scripts], 5) * 1e3,
        "core.testbed.build_ms": _median_s(
            lambda: two_node_testbed(seed=workload.seed, medium="hub", rll=True), 20
        )
        * 1e3,
    }


def spec(workload: FaultCampaign) -> Dict[str, float]:
    """``SweepSpec.tasks()`` against a cold compile cache — each repeat pads
    the scripts with a different run of blank lines, which the cache keys
    on — and ``task_fingerprint`` per cell."""
    padded = [fault_spec(workload.seed, workload.scale, pad="\n" * n) for n in (1, 2, 3)]
    enumerate_s = statistics.median(_median_s(spec.tasks, 1) for spec in padded)
    tasks = workload.tasks
    return {
        "sweep.spec.enumerate_ms": enumerate_s * 1e3,
        "sweep.spec.fingerprint_us": _mean_us(lambda i: task_fingerprint(tasks[i]), len(tasks)),
    }


def runner(workload: Workload) -> Dict[str, float]:
    outcome = run_sweep(workload.tasks, backend="serial")
    executing = outcome.total_task_wall_seconds
    return {
        "sweep.runner.overhead_us_per_cell": (outcome.wall_seconds - executing)
        * 1e6
        / len(outcome.rows),
        "sweep.runner.execute_share": executing / outcome.wall_seconds,
    }


def remote(workload: FleetDispatch) -> Dict[str, float]:
    tasks = workload.tasks
    over_tcp = _median_s(workload.run, 3)
    on_serial = _median_s(lambda: run_sweep(tasks, backend="serial"), 3)
    one_cell = trivial_spec("handshake", workload.seed, 1).tasks()
    handshake = _median_s(
        lambda: run_sweep(
            one_cell, backend="tcp", hosts=workload.worker.address, secret=workload.secret
        ),
        5,
    )
    wire = pickle.dumps(export_task(tasks[0])[0], protocol=pickle.HIGHEST_PROTOCOL)
    scheduler = workload.run().fleet["scheduler"]
    return {
        "sweep.remote.dispatch_us_per_cell": (over_tcp - on_serial) * 1e6 / len(tasks),
        "sweep.remote.handshake_ms": handshake * 1e3,
        "sweep.remote.encode_frame_us": _mean_us(lambda i: encode_frame(MSG_TASK, wire), 2000),
        "sweep.remote.export_task_us": _mean_us(lambda i: export_task(tasks[i % len(tasks)]), 2000),
        "sweep.remote.requeues": float(scheduler["requeues"]),
        "sweep.remote.hedged": float(scheduler["hedges"]),
    }


def _rows(workload: Trivial):
    outcome = run_sweep(workload.tasks, backend="serial")
    return outcome.rows, [task_fingerprint(task) for task in workload.tasks]


def durable_writes(workload: Trivial) -> Dict[str, float]:
    rows, prints = _rows(workload)
    count = min(len(rows), 300)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=workload.root)
    try:
        cache = ResultCache(os.path.join(scratch, "cache"))
        with JournalWriter(os.path.join(scratch, "journal")) as writer:
            write_row = _mean_us(lambda i: writer.write_row(rows[i], prints[i]), count)
        record = rows[0].to_record()
        outcome = run_sweep(
            workload.tasks,
            backend="serial",
            journal=os.path.join(scratch, "cold.journal"),
            cache_dir=os.path.join(scratch, "cold.cache"),
        )
        return {
            "sweep.journal.write_row_us": write_row,
            "sweep.journal.encode_record_us": _mean_us(lambda i: encode_record(record), 2000),
            "sweep.cache.put_us": _mean_us(
                lambda i: cache.put(workload.tasks[i], rows[i], prints[i]), count
            ),
            "sweep.cache.hit_ratio": outcome.cached_rows / len(outcome.rows),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def durable_reads(workload: Trivial) -> Dict[str, float]:
    rows, prints = _rows(workload)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=workload.root)
    try:
        journal = os.path.join(scratch, "journal")
        outcome = run_sweep(workload.tasks, backend="serial", journal=journal, cache_dir=workload.cache)
        cache = ResultCache(workload.cache)
        get_us = _mean_us(lambda i: cache.get(workload.tasks[i], prints[i]), len(rows))
        if cache.hits != len(rows):
            raise RuntimeError("probe read a cache the set-up did not fill")
        return {
            "sweep.journal.read_us_per_row": _median_s(lambda: read_journal(journal), 5)
            * 1e6
            / len(rows),
            "sweep.cache.get_us": get_us,
            "sweep.cache.hit_ratio": outcome.cached_rows / len(outcome.rows),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


#: workload -> the probes its traced pass runs.
PROBES: Dict[str, tuple] = {
    "fig7_vw": (codec,),
    "fig7_bare": (),
    "echo_small": (),
    "fault_campaign": (scenario_setup, spec, runner),
    "fleet_dispatch": (remote,),
    "durable_cold": (durable_writes,),
    "durable_warm": (durable_reads,),
}
