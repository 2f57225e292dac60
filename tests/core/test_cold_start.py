"""VirtualWire is loaded when it is installed.

A testbed without VirtualWire (Fig 7's baseline) loads neither the Fault
Injection Engine nor the FSL compiler: ``install_virtualwire`` and
``run_scenario`` import them.  A forked slot inherits its owner's modules,
so the fleet loads them before it forks.  Each check runs in a fresh
interpreter, where the suite's own imports cannot hide a module.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: What a run without VirtualWire must not load.
FIE_AND_FSL = tuple(
    f"repro.core.{name}"
    for name in (
        "engine", "runtime", "classify", "frontend", "control", "reliable",
        "faults", "audit", "chaos", "fsl", "tables", "report",
    )
) + ("repro.analysis", "repro.trace", "repro.rll")

#: What a scenario cell runs first; a forked slot must find it loaded.
CELL_MODULES = ("repro.core.engine", "repro.core.frontend")


def _run(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{ROOT!r}, {os.path.join(ROOT, 'src')!r}]\n{script}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_bare_run_loads_no_fie_or_fsl():
    _run(
        f"""
import repro
from repro import Testbed
FIE_AND_FSL = {FIE_AND_FSL!r}
count = sum(name.startswith("repro") for name in sys.modules)
assert count <= 30, f"import repro loads {{count}} repro modules"
tb = Testbed(seed=1)
node1, node2 = tb.add_host("node1"), tb.add_host("node2")
tb.add_hub("hub0")
tb.connect("hub0", node1, node2)
node2.tcp.listen(0x4000)
conn = node1.tcp.connect(node2.ip, 0x4000, local_port=0x6000)
conn.on_established = lambda: conn.send(bytes(16384))
tb.sim.run_for(repro.seconds(1))
assert node1.driver.tx_frames > 16384 // 1460
loaded = [name for name in FIE_AND_FSL if name in sys.modules]
assert not loaded, loaded
tb.install_virtualwire()
fie = ("repro.core.engine", "repro.core.runtime", "repro.core.classify", "repro.core.frontend")
missing = [name for name in fie if name not in sys.modules]
assert not missing, missing
"""
    )


def modules_on_entry_task(task):
    """Whether the cell modules were loaded when this cell began."""
    return {
        "loaded": [name in sys.modules for name in CELL_MODULES],
        "pid": os.getpid(),
        "passed": True,
    }


def test_every_forked_slot_starts_with_the_fie_loaded():
    out = _run(
        """
import json
from repro.sweep import SweepSpec, run_sweep
from tests.core.test_cold_start import modules_on_entry_task
spec = SweepSpec("cold", base_seed=1)
for index in range(6):
    spec.add(f"cell{index}", modules_on_entry_task)
outcome = run_sweep(spec, backend="parallel", workers=2)
assert all(row.ok for row in outcome.rows), [row.error for row in outcome.rows]
print(json.dumps([row.payload for row in outcome.rows]))
"""
    )
    payloads = json.loads(out.strip().splitlines()[-1])
    assert len(payloads) == 6
    assert all(payload["loaded"] == [True, True] for payload in payloads), payloads
    assert os.getpid() not in {payload["pid"] for payload in payloads}
