#!/usr/bin/env python3
"""The paper's future-work vision (§8): scripts generated from the spec.

Instead of hand-writing the Fig 6 script, this example describes Rether
declaratively — its message types, its expendable nodes, and a liveness
expectation ("real-time data keeps arriving") — and lets the generator
emit a whole family of FSL scenarios: token drops, token delays,
duplicated control messages, and node crashes.  A sweep campaign then
runs every generated scenario on a fresh four-node testbed — compiled
once in the parent, fanned out over slot processes, rows merged in
deterministic task order (docs/SWEEP.md).

The correct Rether implementation must survive every cell; a build whose
token-loss recovery is disabled must fail the cells that kill the token,
with zero changes to the generated scripts.

Run:  python examples/generated_fault_matrix.py
"""

from repro.core.autogen import ScriptGenerator, rether_spec
from repro.scripts import canonical_node_table
from repro.sim import seconds
from repro.sweep import SweepSpec, run_script_task, run_sweep

RING = ["node1", "node2", "node3", "node4"]


def matrix_campaign(suite, max_time_ns, **rether_kwargs) -> SweepSpec:
    """One sweep task per generated scenario, all on the same recipe:

    four hosts on a bus, VirtualWire everywhere, Rether ring on top, and
    a steady 1 KB / 2 ms real-time feed from node1 to node4.
    """
    spec = SweepSpec("rether_fault_matrix", base_seed=5)
    for name, script in suite.items():
        spec.add(
            name,
            run_script_task,
            script=script,
            seed=5,
            medium="bus",
            rether=True,
            rether_kwargs=rether_kwargs,
            workload={"kind": "tcp_feed", "chunk": 1024, "interval_ns": 2_000_000},
            max_time_ns=max_time_ns,
        )
    return spec


def main() -> None:
    spec = rether_spec(RING, [("node1", "node4")])
    # Addresses are deterministic, so the canonical table supplies the
    # NODE_TABLE the generated scripts embed.
    generator = ScriptGenerator(spec, canonical_node_table(len(RING)))
    suite = generator.generate_suite()
    print(f"generated {len(suite)} scenarios from the Rether spec:")
    print("  " + ", ".join(suite))

    # No backend= anywhere: run_sweep resolves REPRO_SWEEP_BACKEND
    # (validated), else parallel.
    matrix = run_sweep(matrix_campaign(suite, seconds(30)))
    print(f"\n=== correct implementation ({matrix.backend} backend) ===")
    print(matrix.render())
    assert matrix.passed

    print("\n=== broken build: token-loss recovery disabled ===")
    broken = run_sweep(
        matrix_campaign(
            suite, seconds(10), regeneration_timeout_ns=seconds(999)
        )
    )
    print(broken.render())
    assert not broken.passed, "a build without regeneration must fail"
    failing = {row.name for row in broken.failures}
    print(f"\ncells that caught the bug: {sorted(failing)}")


if __name__ == "__main__":
    main()
