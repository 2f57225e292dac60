"""The reach tracer sees into every process an entry point starts: a
function that runs only in a ``parallel`` sweep's forked slot, and one
that runs only in a ``repro worker``'s slot, are both recorded."""

import sys

from tests.tools import reach

SWEEP = (
    "from repro.sweep import SweepSpec, run_sweep\n"
    "from tests.tools import _reach_tasks\n"
    "spec = SweepSpec('probe').add('cell', _reach_tasks.{fn})\n"
    "assert run_sweep(spec, {how}).passed\n"
)


def test_forked_slots_and_worker_subprocesses_are_traced():
    commands = [
        [sys.executable, "-c", SWEEP.format(fn="in_parallel_slot", how="backend='parallel', workers=1")],
        [sys.executable, "-c", SWEEP.format(fn="in_worker_slot", how="backend='tcp', hosts='{hosts}'")],
    ]
    reached = {qual for path, qual in reach.trace(commands, roots=(reach.ROOT / "tests" / "tools",))
               if path.endswith("_reach_tasks.py") and qual != "<module>"}
    assert reached == {"in_parallel_slot", "in_worker_slot"}
