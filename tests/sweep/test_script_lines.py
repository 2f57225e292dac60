"""A cell carries its script: FLAG_ERROR reports the line of the script the
cell ran, on every backend, from the cache and from a resumed journal.

The twin-script campaign runs one FLAG_ERROR script and the same script
behind two blank lines.  Their tables are equal; only the line FLAG_ERROR
reports differs, so any path that names a program by its tables — a
shared program store, a cache key, a journal fingerprint — serves one
twin's line for the other.
"""

import json
import threading

import pytest

from repro.sweep import SweepSpec, run_script_task, run_sweep
from repro.sweep.remote import WorkerServer

#: fires FLAG_ERROR (script line 11) once node1 receives the SYNACK.
TWIN_SCRIPT = """\
FILTER_TABLE
  TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
END
NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END
SCENARIO twin
  SYNACK: (TCP_synack, node2, node1, RECV)
  (TRUE) >> ENABLE_CNTR( SYNACK );
  ((SYNACK > 0)) >> FLAG_ERROR;
END
"""

#: the same tables, two lines further down.
SHIFTED_SCRIPT = "\n\n" + TWIN_SCRIPT


def _cell(spec, name, script):
    spec.add(name, run_script_task, script=script, workload={"kind": "tcp_bulk", "bytes": 4096})
    return spec


def twin_campaign():
    """The two twins, in one campaign."""
    spec = SweepSpec("twins", base_seed=1)
    _cell(spec, "plain", TWIN_SCRIPT)
    return _cell(spec, "shifted", SHIFTED_SCRIPT)


def _lines(outcome):
    return [[error["line"] for error in row.payload["errors"]] for row in outcome.rows]


@pytest.fixture
def one_worker():
    """One in-process ``repro worker`` with one slot: both cells go down one
    connection to one slot process, one after the other."""
    server = WorkerServer(slots=1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"{server.host}:{server.port}"
    server.stop()


def test_each_twin_reports_its_own_line_on_every_backend(one_worker):
    spec = twin_campaign()
    serial = run_sweep(spec, backend="serial")
    assert _lines(serial) == [[11], [13]]
    parallel = run_sweep(spec, backend="parallel", workers=1)
    tcp = run_sweep(spec, backend="tcp", hosts=one_worker)
    assert serial.canonical_bytes() == parallel.canonical_bytes() == tcp.canonical_bytes()


def test_a_line_shifting_edit_re_executes_cached_and_journaled_cells(tmp_path):
    cache_dir, journal = str(tmp_path / "cache"), str(tmp_path / "journal")
    before = _cell(SweepSpec("edit", base_seed=1), "cell", TWIN_SCRIPT)
    run_sweep(before, backend="serial", cache_dir=cache_dir, journal=journal)

    after = _cell(SweepSpec("edit", base_seed=1), "cell", SHIFTED_SCRIPT)
    cold = run_sweep(after, backend="serial")
    assert _lines(cold) == [[13]]
    warm = run_sweep(after, backend="serial", cache_dir=cache_dir)
    resumed = run_sweep(after, backend="serial", journal=journal, resume=True)
    assert (warm.cached_rows, resumed.resumed) == (0, 0)
    assert warm.canonical_bytes() == resumed.canonical_bytes() == cold.canonical_bytes()


if __name__ == "__main__":  # the CI smoke: `python -m tests.sweep.test_script_lines BACKEND [HOSTS]`
    import sys

    outcome = run_sweep(twin_campaign(), backend=sys.argv[1], hosts=(sys.argv[2:] or [None])[0])
    print(json.dumps([row.canonical() for row in outcome.rows], sort_keys=True))
