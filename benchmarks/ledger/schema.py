"""The ledger's vocabulary: workloads, metrics, bounds and sample statistics.

Everything a performance claim about this repo is stated in is named here,
once; ``run.py`` measures it, ``compare.py`` judges it, ``BENCHMARK.json``
at the repo root is the driver-facing projection of it and ``README.md`` is
its glossary.  All times are **host** time unless a name says otherwise;
simulated time only ever appears as a correctness fact (``sim_digest``).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

#: workload name -> why it is in the menu (one line; the README expands it).
WORKLOADS: Dict[str, str] = {
    "fig7_vw": (
        "Fig 7 cell at 90 Mbps on a hub with VirtualWire + RLL, 25 filters/25 "
        "actions: every per-frame layer works; the ROADMAP's >=3x target"
    ),
    "fig7_bare": (
        "the same TCP pump with no engine or RLL installed: sim/tcp/ip dominate "
        "and engine, classifier, runtime, RLL and control plane are bypassed"
    ),
    "echo_small": (
        "UDP echo, 60-byte frames, 25 filters, actions+rll, one frame in flight: "
        "per-packet engine cost undiluted and TCP bypassed"
    ),
    "fault_campaign": (
        "54-cell campaigns of short fault cells (Fig 5 SYNACK drop + 11 generated "
        "Rether scenarios) on serial: per-cell set-up and slow paths dominate"
    ),
    "fleet_dispatch": (
        "trivial cells over the tcp backend to one authenticated loopback worker: "
        "all time is sweep.remote framing, pickle and pull scheduling"
    ),
    "durable_cold": (
        "trivial cells on serial with a journal and an empty result cache: the "
        "write side of durability, one fsync'd record and one atomic put per cell"
    ),
    "durable_warm": (
        "the same cells served from the filled cache into a fresh journal, then "
        "resumed from it: the read side (cache get, journal replay)"
    ),
}

SCENARIO_WORKLOADS = ("fig7_vw", "fig7_bare", "echo_small")
CAMPAIGN_WORKLOADS = ("fault_campaign", "fleet_dispatch", "durable_cold", "durable_warm")
#: workloads whose timed run is the scenario tier (spans are recorded there).
SPAN_WORKLOADS = SCENARIO_WORKLOADS + ("fault_campaign",)

#: 5 % where the run is computing, 10 % where it waits on sockets and fsync.
_TIMING = {
    **{name: 0.05 for name in SPAN_WORKLOADS},
    **{name: 0.10 for name in ("fleet_dispatch", "durable_cold", "durable_warm")},
}


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    #: workload -> relative regression bound (share of the baseline median);
    #: a workload missing here does not report the metric.
    bounds: Dict[str, float]
    #: absolute floor under the relative bound, in the metric's unit.
    floor: float = 0.0


#: The nine end-to-end metrics, measured with tracing off.
END_TO_END: Dict[str, Metric] = {
    "wall_s": Metric("s", "lower", _TIMING),
    "cpu_s": Metric("s", "lower", _TIMING),
    "frames_per_s": Metric("1/s", "higher", {n: 0.05 for n in SCENARIO_WORKLOADS}),
    "cells_per_s": Metric("1/s", "higher", {n: _TIMING[n] for n in CAMPAIGN_WORKLOADS}),
    "cell_wall_p50_ms": Metric("ms", "lower", {"fault_campaign": 0.05}),
    "cell_wall_p95_ms": Metric("ms", "lower", {"fault_campaign": 0.10}),
    "setup_s": Metric("s", "lower", {n: 0.10 for n in WORKLOADS}, floor=0.05),
    "peak_rss_mb": Metric("MB", "lower", {n: 0.05 for n in WORKLOADS}),
    # Absolute: any increase is a regression (compare.py special-cases it).
    "failed_share": Metric("share", "lower", {n: 0.0 for n in WORKLOADS}),
}

#: The subset the driver contract (BENCHMARK.json) can carry.  Metrics: those
#: every workload reports and that are never zero; ``failed_share`` travels as
#: the contract's attempted/failed.  Workloads: those whose contract metrics
#: repeat from run to run within a third of the bound on the sandbox this was
#: built on — the three sweep-tier workloads wait on fsync and sockets, whose
#: cost there drifts by tens of percent over minutes, so they stay in the
#: ledger as diagnostics and out of the driver's gate (README, "Contract").
CONTRACT_END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
CONTRACT_WORKLOADS = SPAN_WORKLOADS


def gated(metric: str, workload: str) -> bool:
    """Whether (*metric*, *workload*) decides a comparison, or is a diagnostic.

    A pair that did not repeat within its bound when two result sets of one
    commit were compared is demoted to a diagnostic, never given a wider
    bound: the timings of the workloads outside ``CONTRACT_WORKLOADS``, and
    ``cell_wall_p95_ms``, whose ten runs spread over 12-21 % of their median
    against a 10 % bound.  ``failed_share`` always decides.
    """
    if metric == "failed_share":
        return True
    return workload in CONTRACT_WORKLOADS and metric != "cell_wall_p95_ms"

#: Scenario layers, in stack order; spans are recorded for each.
LAYERS = (
    "sim",
    "net.medium",
    "stack.driver",
    "rll",
    "core.engine",
    "core.classify",
    "core.runtime",
    "core.control",
    "core.testbed",
    "stack.ip",
    "tcp",
    "stack.udp",
    "rether",
    "workloads",
)

#: name -> (unit, better).  Three span metrics per layer, then the tracer's
#: own figures, exact counts from the product's counters, and timings taken
#: from outside without wrappers.
PER_LAYER: Dict[str, tuple] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ns_per_frame"] = ("ns", "lower")
    PER_LAYER[f"{_layer}.calls_per_frame"] = ("count", "lower")
    PER_LAYER[f"{_layer}.share"] = ("share", "lower")
PER_LAYER.update(
    {
        "trace.unattributed_share": ("share", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "trace.profile_gap_pp": ("pp", "lower"),
        "sim.events_per_frame": ("count", "lower"),
        "stack.driver.frames": ("count", "lower"),
        "rll.retransmissions": ("count", "lower"),
        "rll.acks_per_data": ("ratio", "lower"),
        "tcp.retransmissions": ("count", "lower"),
        "core.engine.packets_classified": ("count", "lower"),
        "core.engine.packets_faulted": ("count", "lower"),
        "core.control.frames": ("count", "lower"),
        "net.codec.frames_per_s": ("1/s", "higher"),
        "core.fsl.compile_ms": ("ms", "lower"),
        "core.testbed.build_ms": ("ms", "lower"),
        "sweep.spec.enumerate_ms": ("ms", "lower"),
        "sweep.spec.fingerprint_us": ("us", "lower"),
        "sweep.runner.overhead_us_per_cell": ("us", "lower"),
        "sweep.runner.execute_share": ("share", "higher"),
        "sweep.remote.dispatch_us_per_cell": ("us", "lower"),
        "sweep.remote.handshake_ms": ("ms", "lower"),
        "sweep.remote.encode_frame_us": ("us", "lower"),
        "sweep.remote.export_task_us": ("us", "lower"),
        "sweep.remote.requeues": ("count", "lower"),
        "sweep.remote.hedged": ("count", "lower"),
        "sweep.journal.write_row_us": ("us", "lower"),
        "sweep.journal.encode_record_us": ("us", "lower"),
        "sweep.journal.read_us_per_row": ("us", "lower"),
        "sweep.cache.put_us": ("us", "lower"),
        "sweep.cache.get_us": ("us", "lower"),
        "sweep.cache.hit_ratio": ("ratio", "higher"),
    }
)


def best(name: str, values: Iterable[float]) -> float:
    """The best of *values* in metric *name*'s direction.

    Every workload is deterministic, single-threaded work, so host noise —
    on a shared VM it comes in bursts that can double a timing for minutes —
    only ever adds time.  The least-disturbed measurement is therefore the
    steadiest estimate of what the program costs, where a median moves with
    the host's load; a regression in the program moves both alike.
    """
    return min(values) if END_TO_END[name].better == "lower" else max(values)


def metrics_for(workload: str) -> List[str]:
    """The end-to-end metrics *workload* reports, in declaration order."""
    return [name for name, metric in END_TO_END.items() if workload in metric.bounds]


# -- sample statistics ---------------------------------------------------------

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_MENU = (50, 75, 90, 95, 99)


def highest_percentile(n: int, menu: Sequence[int] = PERCENTILE_MENU) -> Optional[int]:
    """The highest percentile in *menu* with at least ten samples beyond it.

    ``None`` when even the lowest has fewer: such a sample supports no
    percentile at all and only its count may be reported.
    """
    supported = [p for p in menu if n * (100 - p) >= 10 * 100]
    return max(supported) if supported else None


def percentile(values: Iterable[float], p: int) -> float:
    """Nearest-rank percentile (the value with at most 100-p % above it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = -(-len(ordered) * p // 100)  # ceil
    return ordered[max(rank, 1) - 1]


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and count of *samples* (quartiles collapse onto the
    median when there are fewer than two samples)."""
    values = [float(v) for v in samples]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "samples": values}
