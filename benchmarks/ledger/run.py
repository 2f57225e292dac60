#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME ...]
                                    [--trace 0|1 | --traced] [--quick]
                                    [--seconds S] [--repeats R] [--out FILE]

A *run* of a workload is five fresh child processes, each setting up and
then timing ``--seconds / 5`` of units with tracing off; the run's value
for a metric is the best any unit of any child achieved (host noise only
ever adds time: see ``schema.best``).  With no ``--workload``
every workload is run ``--repeats`` times, the children of all workloads
interleaved, then one traced pass per workload gives the per-layer
metrics.  Every metric is printed by name with its unit, median, quartiles
and sample count, oracle checks fail the run instead of printing a number
from a wrong program, and one JSON result is written (``compare.py`` reads
two of them).

With one ``--workload`` and an explicit ``--trace`` the last line of
standard output is the driver contract's JSON object (see BENCHMARK.json).

Host time everywhere; simulated time appears only under ``simulated:`` and
in ``sim_digest``, where it must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from schema import (  # noqa: E402 — after the path set-up above
    CONTRACT_END_TO_END,
    END_TO_END,
    LAYERS,
    PER_LAYER,
    WORKLOADS,
    best,
    highest_percentile,
    metrics_for,
    percentile,
    summarize,
)

#: Everything the benchmark writes lives here, inside the checkout.
LEDGER_DIR = ".ledger"
#: Fresh processes per run: five set-ups for ``setup_s``, five memory layouts
#: for the timed units, and five chances that one of them ran undisturbed.
CHILDREN_PER_RUN = 5
CHILD_TIMEOUT_S = 170.0


# -- the child: one fresh process, one workload -------------------------------------


def _session_cpu_s(session: int) -> float:
    """User + system CPU seconds of every live process in *session* (the
    loopback worker and its slot process), read from ``/proc``."""
    ticks = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        if int(fields[3]) == session:  # fields[0] is the state, field 3 of `stat`
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _cpu_clock(workload) -> float:
    worker = getattr(workload, "worker", None)
    return time.process_time() + (_session_cpu_s(worker.session) if worker else 0.0)


def _measure(workload):
    """One unit: (wall seconds, cpu seconds, checked :class:`Unit`)."""
    workload.prepare()
    cpu = _cpu_clock(workload)
    started = time.perf_counter()
    raw = workload.run()
    wall = time.perf_counter() - started
    cpu = _cpu_clock(workload) - cpu
    return wall, cpu, workload.check(raw)


def _verdict(units) -> Dict[str, Any]:
    """Operation counts and the digest of a child's units; units that do not
    all yield one digest fail every operation."""
    problems = [p for unit in units for p in unit.problems]
    digests = sorted({unit.digest for unit in units})
    if len(digests) > 1:
        problems.append(f"sim_digest differs between repeats: {digests}")
    attempted = sum(unit.attempted for unit in units)
    return {
        "attempted": attempted,
        "failed": attempted if problems else sum(unit.failed for unit in units),
        "sim_digest": digests[0],
        "problems": problems,
        "facts": units[-1].facts,
    }


def _more(units: list, began: float, budget_s: float, workload) -> bool:
    """Whether a child should time another unit; ``--quick`` passes a budget
    of zero and gets exactly one."""
    if budget_s <= 0:
        return not units
    return len(units) < workload.min_units or time.perf_counter() - began < budget_s


def _timed(workload, budget_s: float) -> Dict[str, Any]:
    walls, cpus, units, cell_walls = [], [], [], []
    began = time.perf_counter()
    while _more(units, began, budget_s, workload):
        wall, cpu, unit = _measure(workload)
        walls.append(wall)
        cpus.append(cpu)
        units.append(unit)
        cell_walls.extend(unit.cell_walls)
    metrics = {"wall_s": best("wall_s", walls), "cpu_s": best("cpu_s", cpus)}
    if units[0].frames:
        metrics["frames_per_s"] = units[0].frames / metrics["wall_s"]
    metrics["cells_per_s"] = units[0].cells / metrics["wall_s"]
    for p in (50, 95):
        if (highest_percentile(len(cell_walls)) or 0) >= p:
            metrics[f"cell_wall_p{p}_ms"] = percentile(cell_walls, p) * 1e3
    return {"metrics": metrics, "units": len(units), **_verdict(units)}


def _counters(testbeds) -> Dict[str, float]:
    """Exact counts read from the program's own public counters."""
    from workloads import driver_frames

    engines = [e.stats for tb in testbeds for e in tb.engines.values()]
    rlls = [layer for tb in testbeds for layer in tb.rll_layers.values()]
    frames = sum(driver_frames(tb) for tb in testbeds)
    data = sum(layer.data_sent for layer in rlls)
    return {
        "stack.driver.frames": frames,
        "sim.events_per_frame": sum(tb.sim.events_processed for tb in testbeds) / max(frames, 1),
        "rll.retransmissions": sum(layer.retransmissions for layer in rlls),
        "rll.acks_per_data": sum(layer.acks_sent for layer in rlls) / max(data, 1),
        "tcp.retransmissions": sum(
            conn.retransmissions
            for tb in testbeds
            for host in tb.hosts.values()
            if host.tcp is not None
            for conn in host.tcp.connections()
        ),
        "core.engine.packets_classified": sum(s.packets_classified for s in engines),
        "core.engine.packets_faulted": sum(
            s.packets_dropped
            + s.packets_delayed
            + s.packets_reordered
            + s.packets_duplicated
            + s.packets_modified
            for s in engines
        ),
        "core.control.frames": sum(
            s.control_frames_sent + s.control_frames_received for s in engines
        ),
    }


def _traced(workload, budget_s: float) -> Dict[str, Any]:
    """Alternate untraced and traced units for *budget_s* (half the run's
    seconds), then one unit under cProfile and the workload's probes."""
    import cProfile
    import pstats

    from probes import PROBES
    from spans import Tracer, profile_shares

    self_ns = [0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    plain_walls, traced_walls, units = [], [], []
    began = time.perf_counter()
    while not units or time.perf_counter() - began < budget_s:
        wall, _, unit = _measure(workload)
        plain_walls.append(wall)
        units.append(unit)
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, unit = _measure(workload)
        finally:
            tracer.remove()
        traced_walls.append(wall)
        units.append(unit)
        for index, (ns, n) in enumerate(zip(*tracer.totals())):
            self_ns[index] += ns
            calls[index] += n
    # Counts repeat exactly from unit to unit (the digest check above pins
    # it), so the last traced unit's testbeds speak for all of them.
    counts = _counters(tracer.testbeds)
    frames = counts["stack.driver.frames"] * len(traced_walls)
    traced_ns = sum(traced_walls) * 1e9

    profiler = cProfile.Profile()
    workload.prepare()
    profiler.enable()
    raw = workload.run()
    profiler.disable()
    units.append(workload.check(raw))
    profiled = profile_shares(pstats.Stats(profiler).stats)

    layers: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for index, name in enumerate(LAYERS):
        layers[f"{name}.self_ns_per_frame"] = self_ns[index] / max(frames, 1)
        layers[f"{name}.calls_per_frame"] = calls[index] / max(frames, 1)
        layers[f"{name}.share"] = self_ns[index] / traced_ns
    layers["trace.unattributed_share"] = 1.0 - sum(self_ns) / traced_ns
    layers["trace.overhead_ratio"] = min(traced_walls) / min(plain_walls)
    layers["trace.profile_gap_pp"] = 100 * max(
        abs(layers[f"{name}.share"] - profiled[name]) for name in LAYERS
    )
    layers.update(counts)
    for probe in PROBES[workload.name]:
        layers.update(probe(workload))
    return {
        "per_layer": layers,
        "profile_shares": profiled,
        "units": len(units),
        **_verdict(units),
    }


def child_main(args) -> int:
    """Set up, warm up, measure; print one JSON object as the last line."""
    from workloads import REGISTRY

    os.makedirs(args.workdir, exist_ok=True)
    workload = REGISTRY[args.workload[0]](args.seed, args.scale, args.workdir)
    try:
        workload.warm_up()
        setup_s = time.time() - args.spawned_at
        measure = _traced if args.trace else _timed
        result = measure(workload, args.seconds)
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        result["metrics"].update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    print(json.dumps(result))
    return 0


# -- the parent: children, aggregation, printing --------------------------------------


def child_environment() -> Dict[str, str]:
    """Children see a fixed hash seed and no ``REPRO_SWEEP_*`` knob, so the
    numbers measure the program and not the caller's shell."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SWEEP_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, args, seconds: float, trace: int) -> Dict[str, Any]:
    """One fresh process for (*workload*, one repeat); raises on a child
    that died or printed no result."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--scale", repr(args.scale),
        "--workdir", os.path.join(LEDGER_DIR, "work"),
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    done = subprocess.run(
        command,
        env=child_environment(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited {done.returncode} without a result")
    return json.loads(lines[-1])


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding *path*, from ``/proc/mounts``."""
    path = os.path.realpath(path)
    best = ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    return {
        "host": platform.node(),
        "nproc": nproc,
        "one_core": nproc == 1,  # such numbers are labelled, never extrapolated
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
        "workdir_fs": filesystem_type(LEDGER_DIR),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "children_per_run": args.children,
        "scale": args.scale,
    }


def merge_runs(workload: str, runs: List[List[Dict[str, Any]]]) -> Dict[str, Any]:
    """One workload's end-to-end entry from its runs, each a list of its
    children's results: one sample per run, the best of its children."""
    children = [child for run in runs for child in run]
    problems = [p for child in children for p in child["problems"]]
    digests = sorted({child["sim_digest"] for child in children})
    if len(digests) > 1:
        problems.append(f"sim_digest differs between processes: {digests}")
    attempted = sum(child["attempted"] for child in children)
    failed = attempted if problems else sum(child["failed"] for child in children)
    end_to_end = {}
    for name in metrics_for(workload):
        if name == "failed_share":
            samples = [failed / attempted]
        else:
            samples = [
                best(name, [child["metrics"][name] for child in run])
                for run in runs
                if all(name in child["metrics"] for child in run)
            ]
        if not samples:
            continue  # a sample too small for this percentile (--quick)
        metric = END_TO_END[name]
        end_to_end[name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bounds[workload],
            **summarize(samples),
        }
    return {
        "why": WORKLOADS[workload],
        "sim_digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "simulated": children[-1]["facts"],
        "units": sum(child["units"] for child in children),
        "end_to_end": end_to_end,
    }


def merge_traced(entry: Dict[str, Any], traced: Dict[str, Any]) -> None:
    """Fold one traced child's result into its workload's entry."""
    entry["per_layer"] = {
        metric: {"value": traced["per_layer"][metric], "unit": unit}
        for metric, (unit, _) in PER_LAYER.items()
    }
    entry["profile_shares"] = traced["profile_shares"]
    entry["problems"] += traced["problems"]
    if entry.setdefault("sim_digest", traced["sim_digest"]) != traced["sim_digest"]:
        entry["problems"].append("tracing changed the simulated statistics")
        traced["failed"] = traced["attempted"]
    entry.setdefault("simulated", traced["facts"])
    entry["attempted"] += traced["attempted"]
    entry["failed"] += traced["failed"]


def cross_checks(entries: Dict[str, Dict[str, Any]]) -> None:
    """Oracles that span workloads: the injector-free baseline must carry at
    least the goodput the instrumented path does."""
    if "fig7_vw" in entries and "fig7_bare" in entries:
        bare = entries["fig7_bare"]["simulated"]["goodput_mbps"]
        with_vw = entries["fig7_vw"]["simulated"]["goodput_mbps"]
        if bare < with_vw:
            for name in ("fig7_vw", "fig7_bare"):
                entry = entries[name]
                entry["problems"].append(f"fig7_bare goodput {bare} < fig7_vw {with_vw}")
                entry["failed"] = entry["attempted"]
                entry["end_to_end"]["failed_share"].update(summarize([1.0]))


def render(result: Dict[str, Any]) -> str:
    head = result["header"]
    lines = [
        f"ledger @ {head['git_sha'][:12]} on {head['host']} "
        f"({head['nproc']} cores{', ONE-CORE HOST' if head['one_core'] else ''}, "
        f"python {head['python']}, load {head['loadavg_at_start'][0]:.2f}, "
        f"workdir on {head['workdir_fs']}), seed {head['seed']}",
        "all times are host time; 'simulated' lines are model outputs and must repeat exactly",
    ]
    for name, entry in result["workloads"].items():
        lines.append(f"\n{name}: {entry['why']}")
        lines.append(
            f"  simulated: {json.dumps(entry['simulated'], sort_keys=True)} "
            f"sim_digest={entry['sim_digest'][:16]}"
        )
        for metric, stats in entry.get("end_to_end", {}).items():
            lines.append(
                f"  {metric:<20} {stats['median']:>14.6g} {stats['unit']:<6} "
                f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}] n={stats['n']} "
                f"bound {stats['bound']:.0%}"
            )
        for metric, stats in entry.get("per_layer", {}).items():
            lines.append(f"  {metric:<36} {stats['value']:>14.6g} {stats['unit']}")
        for problem in entry["problems"]:
            lines.append(f"  ORACLE FAILED: {problem}")
    return "\n".join(lines)


def contract_line(entry: Dict[str, Any], trace: int) -> str:
    """The driver contract's last line for one workload."""
    if trace:
        metrics = {
            name: {"value": stats["value"], "unit": stats["unit"]}
            for name, stats in entry["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": entry["end_to_end"][name]["median"], "unit": END_TO_END[name].unit}
            for name in CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def parent_main(args) -> int:
    names = args.workload or list(WORKLOADS)
    os.makedirs(LEDGER_DIR, exist_ok=True)
    result: Dict[str, Any] = {"schema": "ledger/1", "header": header(args), "workloads": {}}
    entries = result["workloads"]
    try:
        if args.trace in (None, 0):
            runs: Dict[str, List[List[Dict[str, Any]]]] = {name: [] for name in names}
            for _ in range(args.repeats):
                for name in names:
                    runs[name].append([])
                for _ in range(args.children):  # interleaved: one child of each in turn
                    for name in names:
                        runs[name][-1].append(
                            run_child(name, args, args.seconds / args.children, 0)
                        )
            for name in names:
                entries[name] = merge_runs(name, runs[name])
            cross_checks(entries)
        if args.trace in (None, 1):
            for name in names:
                entry = entries.setdefault(
                    name,
                    {"why": WORKLOADS[name], "attempted": 0, "failed": 0, "problems": []},
                )
                merge_traced(entry, run_child(name, args, args.seconds / 2, 1))
    finally:
        shutil.rmtree(os.path.join(LEDGER_DIR, "work"), ignore_errors=True)
    out = args.out or os.path.join(LEDGER_DIR, "result.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(render(result))
    print(f"\nwrote {out}")
    if len(names) == 1 and args.trace is not None:
        print(contract_line(entries[names[0]], args.trace))
    return 0 if all(entry["failed"] == 0 for entry in entries.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run, split over its child processes")
    parser.add_argument("--repeats", type=int, default=10,
                        help="runs per workload (samples per metric)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; default: both")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of every size, one repeat, one unit; oracles stay on")
    parser.add_argument("--out", help=f"result file (default {LEDGER_DIR}/result.json)")
    # Set by the parent when it spawns a child; not part of the interface.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    args.scale, args.children = 1.0, CHILDREN_PER_RUN
    if args.quick:
        args.scale, args.children, args.repeats, args.seconds = 0.1, 1, 1, 0.0
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
