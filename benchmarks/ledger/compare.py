#!/usr/bin/env python3
"""Compare two ledger results, one row per (end-to-end metric, workload).

    python benchmarks/ledger/compare.py A.json B.json

A is the baseline, B the candidate.  Each row gives both sides' median and
quartiles, the bound, the change as a ratio with its base, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the distance
                between A's own quartiles
``unresolved``  either side's quartile distance is wider than the bound and
                the two sets of runs overlap, so the data cannot say
``unchanged``   none of the above

``failed_share`` is absolute: any increase is ``worse``.  Rows that
``schema.gated`` rules out — pairs that did not repeat within their bound
when the ledger was built — are printed with the same arithmetic but marked
``(diagnostic)`` and never decide the exit status.

Exits 1 on any ``worse`` row, 2 when the two results must not be compared
(different core counts: a 1-core number is never set beside a 2-core one).
Two runs of one commit agree when no row is ``worse`` or ``unresolved`` and
every ``sim_digest`` matches; a digest that differs is reported as
*simulated statistics changed* — the two sides ran different programs.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from schema import END_TO_END, gated


def _spread(stats: Dict[str, Any]) -> float:
    """Quartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(name: str, a: Dict[str, Any], b: Dict[str, Any], bound: float) -> Tuple[str, float]:
    """(verdict, worsening) for one metric on one workload.

    *worsening* is B's median against A's as a share of A's, signed so that
    positive means worse whatever the metric's direction.
    """
    metric = END_TO_END[name]
    sign = 1.0 if metric.better == "lower" else -1.0
    if name == "failed_share":
        delta = b["median"] - a["median"]
        return ("worse" if delta > 0 else "better" if delta < 0 else "unchanged"), delta
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    allowed = max(bound, metric.floor / a["median"])
    a_runs, b_runs = [sign * v for v in a["samples"]], [sign * v for v in b["samples"]]
    overlap = not (max(b_runs) < min(a_runs) or min(b_runs) > max(a_runs))
    if max(_spread(a), _spread(b)) > allowed and overlap:
        return "unresolved", worsening
    if worsening > allowed:
        return "worse", worsening
    if -worsening > _spread(a) and worsening < 0:
        return "better", worsening
    return "unchanged", worsening


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], Dict[str, int]]:
    """Rendered rows and a count of each verdict."""
    lines = [
        f"A: {a['header']['git_sha'][:12]} seed {a['header']['seed']} "
        f"({a['header']['nproc']} cores)   "
        f"B: {b['header']['git_sha'][:12]} seed {b['header']['seed']} "
        f"({b['header']['nproc']} cores)",
        f"{'workload':<15}{'metric':<18}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
        f"{'bound':>7}  {'B vs A':<22}verdict",
    ]
    counts = {"better": 0, "worse": 0, "unchanged": 0, "unresolved": 0, "diagnostic": 0}
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        if entry_a.get("sim_digest") != entry_b.get("sim_digest"):
            lines.append(f"{workload:<15}simulated statistics changed (sim_digest differs)")
        for name, stats_a in entry_a.get("end_to_end", {}).items():
            stats_b = entry_b.get("end_to_end", {}).get(name)
            if stats_b is None:
                continue
            outcome, worsening = verdict(name, stats_a, stats_b, stats_a["bound"])
            if gated(name, workload):
                counts[outcome] += 1
            else:
                counts["diagnostic"] += 1
                outcome += " (diagnostic)"
            if name == "failed_share":
                change = f"{worsening:+.4g} absolute"
            else:
                ratio = stats_b["median"] / stats_a["median"]
                change = f"{ratio:.3f}x of {stats_a['median']:.4g}"
            lines.append(
                f"{workload:<15}{name:<18}{_cell(stats_a):>36}{_cell(stats_b):>36}"
                f"{stats_a['bound']:>7.0%}  {change:<22}{outcome}"
            )
    lines.append(", ".join(f"{n} {k}" for k, n in counts.items()))
    return lines, counts


def _cell(stats: Dict[str, Any]) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] n={stats['n']}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    if a["header"]["nproc"] != b["header"]["nproc"]:
        print(
            f"refusing to compare: A ran on {a['header']['nproc']} cores, "
            f"B on {b['header']['nproc']}",
            file=sys.stderr,
        )
        return 2
    lines, counts = compare(a, b)
    print("\n".join(lines))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
