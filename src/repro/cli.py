"""Command-line interface: inspect, lint and sweep FSL scripts.

The paper's front-end accepts scripts "through a command line interface"
(§5.1).  This module provides that surface for the reproduction::

    python -m repro check  scenario.fsl            # parse + compile
    python -m repro tables scenario.fsl            # dump the six tables
    python -m repro lint   scenario.fsl --strict   # static analysis
    python -m repro sweep  scenario.fsl --seeds 0,1,2 --workers 4
    python -m repro worker --port 7777 --slots 4      # serve a fleet slot

``sweep`` runs a whole campaign — the Cartesian product of seeds, media
and control-loss rates — on the testbed reconstructed from the script's
own node table, compiled once and fanned out over slot processes with a
deterministic merge (docs/SWEEP.md).  With ``--backend tcp --hosts
host:port,...`` the same campaign dispatches to a fleet of ``repro
worker`` processes instead, byte-identical rows included.  Bespoke
topologies and workloads remain Python code by design (see examples/).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.fsl import compile_text, parse_script
from .core.lint import Severity, lint_program
from .core.tables import CompiledProgram, CounterKind, TermMode, VarRef
from .errors import FslError, ReproError
from .sim import format_time


def _load(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_summary(program: CompiledProgram) -> str:
    sizes = program.table_sizes()
    timeout = (
        format_time(program.timeout_ns) if program.timeout_ns else "none (quiescence)"
    )
    lines = [
        f"scenario  : {program.scenario_name}",
        f"timeout   : {timeout}",
        "tables    : "
        + ", ".join(f"{name}={count}" for name, count in sizes.items()),
        f"nodes     : {', '.join(program.nodes.names())}",
    ]
    return "\n".join(lines)


def render_tables(program: CompiledProgram) -> str:
    lines = [render_summary(program), "", "FILTER TABLE (scan order)"]
    for position, entry in enumerate(program.filters.entries):
        tuples = ", ".join(
            f"({t.offset} {t.nbytes}"
            + (f" {t.mask:#x}" if t.mask is not None else "")
            + (
                f" {t.pattern.name}"
                if isinstance(t.pattern, VarRef)
                else f" {t.pattern:#x}"
            )
            + ")"
            for t in entry.tuples
        )
        lines.append(f"  [{position}] {entry.name}: {tuples}")
    lines.append("")
    lines.append("NODE TABLE")
    for entry in program.nodes.entries:
        lines.append(f"  {entry.name}: {entry.mac} {entry.ip}")
    lines.append("")
    lines.append("COUNTER TABLE")
    for counter in program.counters:
        if counter.kind is CounterKind.EVENT:
            spec = (
                f"({counter.pkt_type}, {counter.src_node} -> "
                f"{counter.dst_node}, {counter.direction.value})"
            )
            armed = "armed" if counter.initially_enabled else "disabled at start"
            detail = f"{spec}, home {counter.home_node}, {armed}"
        else:
            detail = f"local variable on {counter.home_node}"
        subs = (
            f", mirrored to {sorted(counter.mirror_subscribers)}"
            if counter.mirror_subscribers
            else ""
        )
        lines.append(f"  [{counter.counter_id}] {counter.name}: {detail}{subs}")
    lines.append("")
    lines.append("TERM TABLE")
    for term in program.terms:
        def operand(op):
            if op.is_counter:
                return program.counters[op.counter_id].name
            return str(op.constant)

        mode = (
            f"evaluated at {term.home_node}, status to "
            f"{sorted(n for n in term.consumer_nodes if n != term.home_node) or 'local'}"
            if term.mode is TermMode.LOCAL_BROADCAST
            else f"mirrored values, evaluated at {sorted(term.consumer_nodes)}"
        )
        lines.append(
            f"  [{term.term_id}] {operand(term.lhs)} {term.op.value} "
            f"{operand(term.rhs)}  ({mode})"
        )
    lines.append("")
    lines.append("CONDITION / ACTION TABLES")
    for condition in program.conditions:
        kind = "TRUE rule" if condition.is_true_rule else f"line {condition.line}"
        lines.append(f"  [{condition.condition_id}] ({kind})")
        for node, action_id in condition.triggers:
            action = program.actions[action_id]
            extras = []
            if action.counter_id is not None:
                extras.append(program.counters[action.counter_id].name)
                if action.kind.value in ("INCR_CNTR", "DECR_CNTR", "ASSIGN_CNTR"):
                    extras.append(str(action.value))
            if action.is_packet_fault:
                extras.append(
                    f"{action.pkt_type}, {action.src_node} -> {action.dst_node}, "
                    f"{action.direction.value}"
                )
                if action.kind.value == "DELAY":
                    extras.append(format_time(action.delay_ns))
            detail = f"({', '.join(extras)})" if extras else ""
            lines.append(
                f"      -> [{action_id}] {action.kind.value}{detail} @ {node}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace, out) -> int:
    program = compile_text(_load(args.script), args.scenario)
    print(render_summary(program), file=out)
    return 0


def cmd_tables(args: argparse.Namespace, out) -> int:
    program = compile_text(_load(args.script), args.scenario)
    print(render_tables(program), file=out)
    return 0


def cmd_lint(args: argparse.Namespace, out) -> int:
    program = compile_text(_load(args.script), args.scenario)
    findings = lint_program(program)
    for finding in findings:
        print(finding.render(), file=out)
    if not findings:
        print("clean: no findings", file=out)
        return 0
    if args.strict and any(
        not finding.severity < Severity.WARNING for finding in findings
    ):
        return 1
    return 0


def cmd_scenarios(args: argparse.Namespace, out) -> int:
    script = parse_script(_load(args.script))
    for scenario in script.scenarios:
        timeout = format_time(scenario.timeout_ns) if scenario.timeout_ns else "-"
        print(
            f"{scenario.name}  (counters={len(scenario.counters)}, "
            f"rules={len(scenario.rules)}, timeout={timeout})",
            file=out,
        )
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    import json

    from .sim import NS_PER_SEC
    from .sweep import SweepSpec, run_script_task, run_sweep

    script = _load(args.script)
    seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    media = [m for m in args.media.split(",") if m != ""]
    losses = (
        [float(x) for x in args.loss.split(",") if x != ""] if args.loss else [0.0]
    )
    if not seeds or not media or not losses:
        raise ReproError("sweep needs at least one seed, medium and loss rate")
    spec = SweepSpec(args.script, base_seed=seeds[0])
    for seed in seeds:
        for medium in media:
            for rate in losses:
                label = f"seed={seed},medium={medium}"
                if args.loss:
                    label += f",loss={rate:g}"
                spec.add(
                    label,
                    run_script_task,
                    script=script,
                    scenario=args.scenario,
                    seed=seed,
                    medium=medium,
                    control_loss={args.loss_node: rate} if rate else {},
                    rll=args.rll,
                    rether=args.rether,
                    workload={"kind": args.workload},
                    max_time_ns=int(args.max_time * NS_PER_SEC),
                )
    journal, resume = args.journal, False
    if args.resume:
        if journal is not None and journal != args.resume:
            raise ReproError(
                "--journal and --resume point at different files; "
                "--resume PATH already names the journal"
            )
        journal, resume = args.resume, True
    secret = None
    if args.secret_file is not None:
        from .sweep import resolve_secret

        secret = resolve_secret(secret_file=args.secret_file)
    extra = {} if args.retries is None else {"retries": args.retries}
    outcome = run_sweep(
        spec,
        backend=args.backend,
        workers=args.workers,
        fail_fast=args.fail_fast,
        journal=journal,
        resume=resume,
        cache_dir=args.cache_dir,
        task_timeout=args.task_timeout,
        hosts=args.hosts,
        secret=secret,
        **extra,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "aborted": outcome.aborted,
                    "backend": outcome.backend,
                    "cached_rows": outcome.cached_rows,
                    "fleet": outcome.fleet,
                    "interrupted": outcome.interrupted,
                    "passed": outcome.passed,
                    "resumed": outcome.resumed,
                    "rows": [row.canonical() for row in outcome.rows],
                    "timed_out": outcome.timed_out,
                    "workers": outcome.workers,
                },
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(outcome.render(), file=out)
    return 0 if outcome.passed else 1


def cmd_worker(args: argparse.Namespace, out) -> int:
    import signal as _signal

    from .sweep.remote import WorkerServer

    server = WorkerServer(
        host=args.host,
        port=args.port,
        slots=args.slots,
        secret_file=args.secret_file,
        max_idle=args.max_idle,
    )
    # The parent discovers an ephemeral port (--port 0) from this line;
    # tests and CI scrape it, so the format is part of the interface.
    print(f"LISTENING {server.host}:{server.port}", file=out)
    try:
        out.flush()
    except (AttributeError, OSError):
        pass

    def _shutdown(signum, frame):  # noqa: ANN001 — signal handler signature
        server.stop()

    for signame in ("SIGTERM", "SIGINT"):
        if hasattr(_signal, signame):
            try:
                _signal.signal(getattr(_signal, signame), _shutdown)
            except (ValueError, OSError):
                pass  # non-main thread: rely on KeyboardInterrupt
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    note = " (idle limit reached)" if server.idle_exit else ""
    print(
        f"worker stopped after {server.campaigns_served} campaign(s){note}",
        file=out,
    )
    return 0


#: what a saved scenario payload (or ``analyze --json`` output) carries at
#: least one of; a whole ``sweep --json`` document carries none.
_ROW_KEYS = {"scenario", "journeys", "metrics"}


def cmd_analyze(args: argparse.Namespace, out) -> int:
    import json

    from .analysis import render_journeys, render_metrics
    from .sim import NS_PER_SEC
    from .sweep import SweepSpec, run_script_task, run_sweep

    if args.row:
        with open(args.row, "rb") as handle:
            try:
                payload = json.loads(handle.read())
            except ValueError:
                payload = None
        # Accept either a bare payload or a canonical sweep row.
        if isinstance(payload, dict) and isinstance(payload.get("payload"), dict):
            payload = payload["payload"]
        if not isinstance(payload, dict) or not _ROW_KEYS & payload.keys():
            raise ReproError(f"{args.row} must hold one saved sweep row or payload")
    else:
        if not args.script:
            raise ReproError("analyze needs a script (or --row FILE)")
        spec = SweepSpec(args.script, base_seed=args.seed)
        spec.add(
            "analyze",
            run_script_task,
            script=_load(args.script),
            scenario=args.scenario,
            seed=args.seed,
            medium=args.medium,
            rll=args.rll,
            rether=args.rether,
            telemetry=True,
            workload={"kind": args.workload},
            max_time_ns=int(args.max_time * NS_PER_SEC),
        )
        outcome = run_sweep(spec, backend="serial")
        row = outcome.rows[0]
        if not row.ok:
            print(f"error: scenario run failed: {row.error}", file=out)
            return 2
        payload = row.payload
    journeys = payload.get("journeys", [])
    metrics = payload.get("metrics", {})
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            for journey in journeys:
                handle.write(json.dumps(journey, sort_keys=True) + "\n")
    if args.json:
        print(
            json.dumps(
                {"journeys": journeys, "metrics": metrics},
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        verdict = payload.get("passed")
        print(
            f"scenario {payload.get('scenario')!r}: "
            f"{'PASS' if verdict else 'FAIL' if verdict is False else '?'} "
            f"({payload.get('end_reason')}), "
            f"{len(journeys)} frame journeys",
            file=out,
        )
        dropped = payload.get("trace_records_dropped") or 0
        if dropped:
            print(
                f"WARNING: capture saturated, {dropped} frames dropped — "
                f"journeys may be incomplete",
                file=out,
            )
        print("", file=out)
        rendered = render_journeys(
            journeys, limit=args.journeys, faults_only=not args.all
        )
        if rendered:
            print(rendered, file=out)
        if metrics:
            print("", file=out)
            print("metrics:", file=out)
            print(render_metrics(metrics), file=out)
    if args.check and (not journeys or not metrics):
        print("error: --check: expected non-empty journeys and metrics", file=out)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VirtualWire reproduction: FSL script tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and compile a script")
    check.add_argument("script")
    check.add_argument("--scenario", default=None)
    check.set_defaults(handler=cmd_check)

    tables = sub.add_parser("tables", help="dump the compiled six tables")
    tables.add_argument("script")
    tables.add_argument("--scenario", default=None)
    tables.set_defaults(handler=cmd_tables)

    lint = sub.add_parser("lint", help="static analysis of a script")
    lint.add_argument("script")
    lint.add_argument("--scenario", default=None)
    lint.add_argument(
        "--strict", action="store_true", help="exit 1 on warnings"
    )
    lint.set_defaults(handler=cmd_lint)

    scenarios = sub.add_parser("scenarios", help="list a script's scenarios")
    scenarios.add_argument("script")
    scenarios.set_defaults(handler=cmd_scenarios)

    sweep = sub.add_parser(
        "sweep",
        help="run a campaign: seeds x media x loss rates, parallel by default",
    )
    sweep.add_argument("script")
    sweep.add_argument("--scenario", default=None)
    sweep.add_argument(
        "--seeds", default="0", help="comma-separated simulator seeds (default 0)"
    )
    sweep.add_argument(
        "--media",
        default="switch",
        help="comma-separated media: switch, hub, bus, link (default switch)",
    )
    sweep.add_argument(
        "--loss",
        default=None,
        help="comma-separated control-frame loss rates (e.g. 0,0.05,0.2)",
    )
    sweep.add_argument(
        "--loss-node",
        default="node2",
        help="node whose control channel the --loss rates degrade",
    )
    sweep.add_argument(
        "--workload",
        default="tcp_bulk",
        choices=("tcp_bulk", "tcp_feed", "udp_probes", "none"),
        help="traffic driven during each run (default tcp_bulk)",
    )
    sweep.add_argument(
        "--rll", action="store_true", help="enable the Reliable Link Layer"
    )
    sweep.add_argument(
        "--rether",
        action="store_true",
        help="install a Rether token ring over all scenario nodes",
    )
    sweep.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop the campaign at the first failed run",
    )
    sweep.add_argument(
        "--backend",
        default=None,
        help="execution backend: serial, parallel or tcp (default: "
        "REPRO_SWEEP_BACKEND or parallel)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, help="slot processes (default: cores, max 4)"
    )
    sweep.add_argument(
        "--hosts",
        default=None,
        metavar="HOST:PORT,...",
        help="worker fleet for the tcp backend, e.g. "
        "127.0.0.1:7777,10.0.0.2:7777 (default: REPRO_SWEEP_HOSTS)",
    )
    sweep.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the fleet's pre-shared authentication secret "
        "for the tcp backend (default: REPRO_SWEEP_SECRET); both peers "
        "must hold the same secret",
    )
    sweep.add_argument(
        "--max-time",
        type=float,
        default=60.0,
        help="virtual-time cap per run, in seconds (default 60)",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="print the campaign as JSON: canonical rows plus "
        "resumed/cached_rows/timed_out/aborted accounting",
    )
    sweep.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append every completed row to a crash-safe JSONL journal "
        "(CRC-checked, fsync'd per row; see docs/SWEEP.md)",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume an interrupted campaign from its journal at PATH "
        "(implies --journal PATH); only missing cells execute",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache, a directory of campaign journals (a --journal is "
        "linked there): clean cells replay from DIR, only dirty cells execute",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-task wall-clock deadline in seconds; a hung task is "
        "retried once, then recorded as a TIMEOUT row",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-queue budget per cell after a worker crash or connection "
        "loss before the cell becomes a deterministic FAILED row "
        "(default 1; rejoining workers refund their own losses)",
    )
    sweep.set_defaults(handler=cmd_sweep)

    worker = sub.add_parser(
        "worker",
        help="serve sweep tasks to a remote parent: N local process slots "
        "over the TCP job protocol (see docs/SWEEP.md)",
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to listen on (default 127.0.0.1; the protocol "
        "trusts its peers — bind wider interfaces only on networks you "
        "control)",
    )
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to listen on (default 0: pick an ephemeral port and "
        "print it as 'LISTENING host:port')",
    )
    worker.add_argument(
        "--slots",
        type=int,
        default=None,
        help="local process slots served (default: cores, max 4, or "
        "REPRO_SWEEP_WORKERS)",
    )
    worker.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the fleet's pre-shared authentication secret "
        "(default: REPRO_SWEEP_SECRET); parents that cannot prove it are "
        "refused before any task is accepted",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit when no parent has connected for this long, so "
        "orphaned fleet processes don't leak on shared hosts",
    )
    worker.set_defaults(handler=cmd_worker)

    analyze = sub.add_parser(
        "analyze",
        help="run a scenario with full telemetry and render the FAE's "
        "frame journeys and per-node metrics",
    )
    analyze.add_argument("script", nargs="?", default=None)
    analyze.add_argument("--scenario", default=None)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--medium", default="switch", choices=("switch", "hub", "bus", "link")
    )
    analyze.add_argument(
        "--workload",
        default="tcp_bulk",
        choices=("tcp_bulk", "tcp_feed", "udp_probes", "none"),
    )
    analyze.add_argument(
        "--rll", action="store_true", help="enable the Reliable Link Layer"
    )
    analyze.add_argument(
        "--rether", action="store_true", help="install a Rether token ring"
    )
    analyze.add_argument(
        "--max-time",
        type=float,
        default=60.0,
        help="virtual-time cap, in seconds (default 60)",
    )
    analyze.add_argument(
        "--journeys",
        type=int,
        default=10,
        help="max journeys to render (default 10)",
    )
    analyze.add_argument(
        "--all",
        action="store_true",
        help="render every journey, not just faulted/retransmitted ones",
    )
    analyze.add_argument(
        "--row",
        default=None,
        help="render a saved sweep row (JSON file) instead of running",
    )
    analyze.add_argument(
        "--json", action="store_true", help="print journeys + metrics as JSON"
    )
    analyze.add_argument(
        "--jsonl", default=None, help="also dump one journey per line to FILE"
    )
    analyze.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless journeys and metrics are non-empty (CI smoke)",
    )
    analyze.set_defaults(handler=cmd_analyze)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except BrokenPipeError:
        return 0  # the consumer (e.g. `| head`) closed the pipe: fine
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except (FslError, ReproError) as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
