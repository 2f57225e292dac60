#!/usr/bin/env python3
"""Script reuse across implementation versions — the paper's core pitch.

The abstract promises that "fault specifications can be reused across
versions of a protocol implementation".  This example runs the *unchanged*
Fig 5 script against seven versions of the TCP congestion-control module:
the correct Tahoe algorithm, a conforming Reno alternative, plus five
seeded bugs.  No test code changes between runs — only the implementation
under test does — and the script's verdict separates the conforming
versions from the broken ones.  The seven runs are one sweep campaign:
the script compiles once, the variants fan out over slot processes, and
the rows merge back in declaration order (docs/SWEEP.md).

Note the FrozenWindow row: its bug makes the sender strictly *more*
conservative, which the window-safety invariant deliberately does not
reject.  The FAE checks what the script says — nothing more — so an
overly-timid implementation needs a throughput-oriented scenario instead.

Run:  python examples/regression_suite.py
"""

from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import SweepSpec, run_sweep, tcp_variant_task

#: variant name -> should the Fig 5 window invariant flag it?
EXPECTED_FLAGGED = {
    "tahoe": False,
    "reno": False,  # a second conforming version: fast recovery
    "bug-no-congestion-avoidance": True,
    "bug-ignores-ssthresh-reset": True,
    "bug-aggressive-slow-start": True,
    "bug-eager-congestion-avoidance": True,
    "bug-frozen-window": False,  # conservative: violates nothing the script checks
}


def suite_campaign() -> SweepSpec:
    script = tcp_congestion_script(canonical_node_table(2))
    spec = SweepSpec("tcp_regression_suite", base_seed=7)
    for name in EXPECTED_FLAGGED:
        spec.add(name, tcp_variant_task, script=script, variant=name, seed=7)
    return spec


def main() -> None:
    # No backend= here: run_sweep resolves REPRO_SWEEP_BACKEND (validated),
    # else parallel.
    outcome = run_sweep(suite_campaign())
    assert all(row.ok for row in outcome.rows), outcome.render()
    print(f"{'implementation under test':<34} {'verdict':<8} {'errors':<7} expected")
    print("-" * 66)
    all_as_expected = True
    for row in outcome.rows:
        should_flag = EXPECTED_FLAGGED[row.name]
        flagged = row.payload["flagged"]
        ok = flagged == should_flag
        all_as_expected &= ok
        print(
            f"{row.name:<34} {'PASS' if row.payload['passed'] else 'FAIL':<8} "
            f"{len(row.payload['errors']):<7} "
            f"{'flagged' if should_flag else 'clean':<8} "
            f"{'✓' if ok else '✗ UNEXPECTED'}"
        )
    assert all_as_expected
    print(f"\nregression suite OK ({outcome.backend} backend): one script, "
          "seven implementations, zero test-code changes.")


if __name__ == "__main__":
    main()
