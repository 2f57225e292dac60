"""Result-cache tests: content addressing, dirty-cell re-execution, and
the warm-vs-cold byte-identity differential."""

import json
import os
import subprocess
import sys

import pytest

from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import (
    ResultCache,
    SweepResult,
    SweepSpec,
    run_script_task,
    run_sweep,
    task_fingerprint,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _probe_task(task):
    """Appends one line per *execution* to the probe file — cache hits
    must not add lines."""
    with open(task.param("probe"), "a", encoding="utf-8") as handle:
        handle.write(f"{task.index}\n")
    return {
        "index": task.index,
        "knob": task.param("knob", 0),
        "seed": task.seed,
        "passed": True,
    }


def _raising_task(task):
    raise ValueError("boom")


def _executions(probe) -> int:
    if not os.path.exists(probe):
        return 0
    return len(open(probe, encoding="utf-8").read().splitlines())


def _grid(probe, total=6, knobs=None):
    spec = SweepSpec("cachegrid", base_seed=7)
    knobs = knobs if knobs is not None else [0] * total
    for i in range(total):
        spec.add(f"cell{i}", _probe_task, probe=str(probe), knob=knobs[i])
    return spec


class TestFingerprint:
    def test_stable_across_calls(self):
        task = _grid("p").tasks()[0]
        assert task_fingerprint(task) == task_fingerprint(task)

    def test_sensitive_to_knobs_seed_fn_and_cell(self):
        base = _grid("p", knobs=[0] * 6).tasks()
        edited = _grid("p", knobs=[0, 0, 0, 9, 0, 0]).tasks()
        fps_base = [task_fingerprint(t) for t in base]
        fps_edit = [task_fingerprint(t) for t in edited]
        # Exactly the edited cell differs.
        assert [a == b for a, b in zip(fps_base, fps_edit)] == [
            True, True, True, False, True, True,
        ]
        reseeded = SweepSpec("cachegrid", base_seed=8)
        reseeded.add("cell0", _probe_task, probe="p", knob=0)
        assert task_fingerprint(reseeded.tasks()[0]) != fps_base[0]

    def test_program_param_tracks_script_content(self):
        """The key covers the script text: a table edit dirties the
        fingerprint, and so does reformatting, which moves the lines
        FLAG_ERROR reports."""
        nodes = canonical_node_table(2)
        script = tcp_congestion_script(nodes)
        spec = SweepSpec("scripted", base_seed=1)
        spec.add("cell", run_script_task, script=script)
        fp = task_fingerprint(spec.tasks()[0])
        # Whitespace-only edit: same compiled tables, other lines.
        reformatted = SweepSpec("scripted", base_seed=1)
        reformatted.add(
            "cell", run_script_task, script=script.replace("\n", "\n\n", 1)
        )
        assert task_fingerprint(reformatted.tasks()[0]) != fp
        # A table-visible edit (different drop threshold) dirties it.
        edited = SweepSpec("scripted", base_seed=1)
        edited.add(
            "cell", run_script_task,
            script=script.replace("SYNACK < 2", "SYNACK < 3", 1),
        )
        assert task_fingerprint(edited.tasks()[0]) != fp


def _under_hash_seed(seed, *argv):
    """``python *argv`` from the repo root with ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"), PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestHashSeed:
    """The Fig 6 scripts keep node names in sets, whose iteration order is
    ``PYTHONHASHSEED``'s: a table rendering that followed it changed from
    one process to the next — the INIT checksum, and once every cache
    key."""

    def test_checksums_equal_under_two_hash_seeds(self):
        program = (
            "import glob, json\n"
            "from repro.core.fsl import compile_text\n"
            "print(json.dumps({path: compile_text(open(path).read()).checksum()\n"
            "                  for path in sorted(glob.glob('scenarios/*.fsl'))}))\n"
        )
        hashes = [json.loads(_under_hash_seed(seed, "-c", program).stdout) for seed in (1, 2)]
        assert len(hashes[0]) == 3 and hashes[0] == hashes[1]

    def test_a_fig6_cell_cached_under_one_seed_hits_under_another(self, tmp_path):
        argv = (
            "-m", "repro", "sweep", "scenarios/fig6_rether_failover.fsl", "--rether",
            "--workload", "none", "--max-time", "0.5", "--backend", "serial",
            "--cache-dir", str(tmp_path), "--json",
        )
        cold, warm = (json.loads(_under_hash_seed(seed, *argv).stdout) for seed in (1, 2))
        assert (cold["cached_rows"], warm["cached_rows"]) == (0, len(warm["rows"])) == (0, 1)
        assert warm["rows"][0]["payload"] == cold["rows"][0]["payload"]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _grid(tmp_path / "p").tasks()[0]
        assert cache.get(task) is None
        row = SweepResult(
            index=task.index, name=task.name, seed=task.seed,
            status=SweepResult.OK, payload={"passed": True},
        )
        assert cache.put(task, row)
        hit = cache.get(task)
        assert hit is not None and hit.cached
        assert hit.canonical() == row.canonical()
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    @pytest.mark.parametrize("status", [SweepResult.FAILED, SweepResult.TIMEOUT])
    def test_non_ok_rows_are_not_cached(self, tmp_path, status):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _grid(tmp_path / "p").tasks()[0]
        row = SweepResult(
            index=task.index, name=task.name, seed=task.seed,
            status=status, error="nope",
        )
        assert not cache.put(task, row)
        assert cache.get(task) is None

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _grid(tmp_path / "p").tasks()[0]
        row = SweepResult(
            index=task.index, name=task.name, seed=task.seed,
            status=SweepResult.OK, payload={},
        )
        cache.put(task, row)
        path = cache._entry_path(task_fingerprint(task))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"half a reco')
        assert cache.get(task) is None
        assert not os.path.exists(path)


class TestWarmRuns:
    def test_warm_run_executes_nothing_and_matches_cold_bytes(self, tmp_path):
        probe = tmp_path / "probe"
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(_grid(probe), backend="serial", cache_dir=cache_dir)
        assert _executions(probe) == 6
        assert cold.cached_rows == 0
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=cache_dir)
        assert _executions(probe) == 6  # nothing re-executed
        assert warm.cached_rows == 6
        assert all(row.cached for row in warm.rows)
        assert warm.canonical_bytes() == cold.canonical_bytes()

    def test_one_edited_cell_reexecutes_exactly_that_cell(self, tmp_path):
        """The acceptance probe: edit one cell's knob, re-run warm, and
        only the dirty cell executes — with bytes identical to a cold
        full run of the edited grid."""
        probe = tmp_path / "probe"
        cache_dir = str(tmp_path / "cache")
        run_sweep(_grid(probe), backend="serial", cache_dir=cache_dir)
        assert _executions(probe) == 6
        edited_knobs = [0, 0, 9, 0, 0, 0]
        warm = run_sweep(
            _grid(probe, knobs=edited_knobs),
            backend="serial",
            cache_dir=cache_dir,
        )
        assert _executions(probe) == 7  # exactly one dirty cell
        assert warm.cached_rows == 5
        assert warm.rows[2].payload["knob"] == 9 and not warm.rows[2].cached
        cold_probe = tmp_path / "cold_probe"
        cold = run_sweep(
            _grid(cold_probe, knobs=edited_knobs), backend="serial"
        )
        assert warm.canonical_bytes() == cold.canonical_bytes()

    def test_parallel_backend_fills_and_serves_the_cache(self, tmp_path):
        probe = tmp_path / "probe"
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(
            _grid(probe), backend="parallel", workers=2, cache_dir=cache_dir
        )
        warm = run_sweep(
            _grid(probe), backend="parallel", workers=2, cache_dir=cache_dir
        )
        assert warm.cached_rows == 6
        assert warm.canonical_bytes() == cold.canonical_bytes()
        assert _executions(probe) == 6

    def test_failed_rows_reexecute_on_the_next_run(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = SweepSpec("flaky", base_seed=1).add("bad", _raising_task)
        first = run_sweep(spec, backend="serial", cache_dir=cache_dir)
        assert not first.rows[0].ok
        second = run_sweep(spec, backend="serial", cache_dir=cache_dir)
        assert second.cached_rows == 0  # FAILED rows are never cached
        assert not second.rows[0].cached
