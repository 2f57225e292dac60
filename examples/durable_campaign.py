#!/usr/bin/env python3
"""Durable campaigns — journal, kill, resume, warm cache.

A figure-grade sweep can run for hours; losing it to a Ctrl-C, an OOM
kill or a power cut should cost one cell, not the campaign.  This
example runs a 12-cell Fig 5 grid three times over the same journal and
result cache (docs/SWEEP.md):

1. **cold** — every cell executes; every merged row is appended to a
   CRC-framed, fsync'd JSONL journal and stored in the cache;
2. **resume** — the same campaign against the existing journal replays
   all 12 rows without executing anything, exactly as it would after a
   mid-flight ``kill -9`` (tests/sweep/test_durability.py does the
   actual killing);
3. **warm** — a fresh journal but the same cache directory: every cell
   is served by its content-addressed fingerprint (the SHA-256 of the
   cell's canonical JSON: task fn, knobs, seed and script text).

All three outcomes merge to byte-identical canonical rows — durability
never changes results, only who has to recompute them.

Run:  python examples/durable_campaign.py
"""

import os
import tempfile

from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import SweepSpec, run_script_task, run_sweep

def fig5_grid() -> SweepSpec:
    script = tcp_congestion_script(canonical_node_table(2))
    spec = SweepSpec("durable_fig5", base_seed=11)
    spec.add_grid(
        run_script_task,
        axes={"seed": [0, 1, 2], "medium": ["switch", "hub"],
              "control_loss": [{}, {"node2": 0.1}]},
        script=script,
        workload={"kind": "tcp_bulk", "bytes": 32 * 1024},
    )
    return spec


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        journal = os.path.join(scratch, "fig5.jsonl")
        cache = os.path.join(scratch, "cache")

        # No backend= anywhere: run_sweep resolves REPRO_SWEEP_BACKEND
        # (validated), else parallel.
        cold = run_sweep(fig5_grid(),
                         journal=journal, cache_dir=cache, task_timeout=300.0)
        assert cold.passed, cold.render()
        print(f"cold:   {len(cold.rows)} rows executed on the {cold.backend} "
              f"backend, journal {os.path.getsize(journal)} bytes")

        resumed = run_sweep(fig5_grid(),
                            journal=journal, resume=True, cache_dir=cache)
        assert resumed.resumed == len(cold.rows)
        print(f"resume: {resumed.resumed} rows replayed from the journal, "
              f"0 executed")

        warm = run_sweep(fig5_grid(),
                         journal=os.path.join(scratch, "fresh.jsonl"),
                         cache_dir=cache)
        assert warm.cached_rows == len(cold.rows)
        print(f"warm:   {warm.cached_rows} rows served by the result cache")

        assert (cold.canonical_bytes() == resumed.canonical_bytes()
                == warm.canonical_bytes())
        print("\ndurable campaign OK: cold, resumed and cache-warm runs "
              "merge byte-identically.")


if __name__ == "__main__":
    main()
