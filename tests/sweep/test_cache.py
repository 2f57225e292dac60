"""Result-cache tests: content addressing, dirty-cell re-execution, and
the warm-vs-cold byte-identity differential."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import (
    ResultCache,
    SweepError,
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


#: Set by the concurrency test: each cell of two campaigns waits for its
#: twin in the other, so both append to one directory at once.
_RENDEZVOUS = None


def _rendezvous_task(task):
    _RENDEZVOUS.wait()
    return {"campaign": task.param("campaign"), "index": task.index, "passed": True}


def _executions(probe) -> int:
    if not os.path.exists(probe):
        return 0
    return len(open(probe, encoding="utf-8").read().splitlines())


def _journals(directory):
    return sorted(path for path in directory.iterdir() if path.name.endswith(".journal"))


def _links(directory):
    return [path for path in _journals(directory) if path.is_symlink()]


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
        fingerprint = task_fingerprint(task)
        assert cache.get(task, fingerprint) is None
        row = SweepResult(
            index=task.index, name=task.name, seed=task.seed,
            status=SweepResult.OK, payload={"passed": True},
        )
        assert cache.put(task, row, fingerprint)
        hit = cache.get(task, fingerprint)
        assert hit is not None and hit.cached and not row.cached
        assert hit.canonical() == row.canonical()
        assert cache.hits == 1 and cache.misses == 1
        cache.close()
        # Stored durably, in one journal: a second cache over the
        # directory serves the row.
        assert len(_journals(tmp_path / "cache")) == 1
        again = ResultCache(str(tmp_path / "cache"))
        assert again.get(task, fingerprint).canonical() == row.canonical()

    def test_a_reopened_cache_serves_every_fingerprint_of_one_index(self, tmp_path):
        """Two rows of task index 0 under two fingerprints (one cache
        reused across campaigns): both are served after a reopen, not
        only the later one."""
        cache = ResultCache(str(tmp_path / "cache"))
        tasks = [_grid(tmp_path / "p", total=1, knobs=[knob]).tasks()[0] for knob in (0, 1)]
        fingerprints = [task_fingerprint(task) for task in tasks]
        assert fingerprints[0] != fingerprints[1]
        for knob, task, fingerprint in zip((0, 1), tasks, fingerprints):
            row = SweepResult(
                index=task.index, name=task.name, seed=task.seed,
                status=SweepResult.OK, payload={"knob": knob},
            )
            assert cache.put(task, row, fingerprint)
        cache.close()
        again = ResultCache(str(tmp_path / "cache"))
        for knob, task, fingerprint in zip((0, 1), tasks, fingerprints):
            assert again.get(task, fingerprint).payload == {"knob": knob}
        assert again.hits == 2

    @pytest.mark.parametrize("status", [SweepResult.FAILED, SweepResult.TIMEOUT])
    def test_non_ok_rows_are_not_cached(self, tmp_path, status):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _grid(tmp_path / "p").tasks()[0]
        row = SweepResult(
            index=task.index, name=task.name, seed=task.seed,
            status=status, error="nope",
        )
        assert not cache.put(task, row, task_fingerprint(task))
        assert cache.get(task, task_fingerprint(task)) is None

    def test_a_corrupt_record_mid_journal_serves_nothing_from_it(self, tmp_path):
        """A journal that does not replay is skipped whole: its cells
        re-execute, the run completes, and the file stays where it is."""
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        cold = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        (journal,) = _journals(cache_dir)
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"passed":true', '"passed":false')
        journal.write_text("".join(lines), encoding="utf-8")
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 0 and _executions(probe) == 12
        assert warm.canonical_bytes() == cold.canonical_bytes()
        assert journal.exists()

    def test_a_torn_tail_serves_every_row_before_the_tear(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        cold = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        (journal,) = _journals(cache_dir)
        content = journal.read_bytes()
        journal.write_bytes(content[: content.rindex(b"\n", 0, -1) + 20])
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 5 and _executions(probe) == 7
        assert not warm.rows[5].cached
        assert warm.canonical_bytes() == cold.canonical_bytes()

    def test_a_dangling_link_is_skipped(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        dangling = cache_dir / "gone.journal"
        os.symlink(str(tmp_path / "deleted.jsonl"), str(dangling))
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 6 and _executions(probe) == 6
        assert os.path.islink(dangling)


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


class TestOneStore:
    """The cache directory is journals and links to journals: a campaign
    journal given with ``--journal`` serves later runs through its link."""

    def test_a_journaled_run_fills_the_cache_for_a_cache_only_run(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        journal = tmp_path / "runs" / "cold.jsonl"
        cold = run_sweep(
            _grid(probe), backend="serial", journal=str(journal), cache_dir=str(cache_dir)
        )
        (link,) = _journals(cache_dir)
        assert link.is_symlink() and os.readlink(link) == str(journal)
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 6 and _executions(probe) == 6
        assert warm.canonical_bytes() == cold.canonical_bytes()
        assert _journals(cache_dir) == [link]  # every hit; nothing written

    def test_warm_runs_with_fresh_journals_leave_the_dir_unchanged(self, tmp_path):
        """A journal is linked only once it holds a row this campaign
        executed: fully warm runs add nothing to DIR, so later opens do
        not read the campaign's rows again and again."""
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        cold = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        before = _journals(cache_dir)
        for attempt in range(3):
            warm = run_sweep(
                _grid(probe), backend="serial",
                journal=str(tmp_path / f"warm{attempt}.jsonl"), cache_dir=str(cache_dir),
            )
            assert warm.cached_rows == 6 and _executions(probe) == 6
            assert warm.canonical_bytes() == cold.canonical_bytes()
            assert _journals(cache_dir) == before
        dirty = _grid(probe, knobs=[0, 0, 9, 0, 0, 0])
        journal = tmp_path / "dirty.jsonl"
        edited = run_sweep(
            dirty, backend="serial", journal=str(journal), cache_dir=str(cache_dir)
        )
        assert edited.cached_rows == 5 and _executions(probe) == 7
        (link,) = set(_journals(cache_dir)) - set(before)
        assert link.is_symlink() and os.readlink(link) == str(journal)
        again = run_sweep(dirty, backend="serial", cache_dir=str(cache_dir))
        assert again.cached_rows == 6 and _executions(probe) == 7

    def test_a_journal_inside_the_cache_dir_gets_no_link(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        journal = cache_dir / "own.journal"
        run_sweep(_grid(probe), backend="serial", journal=str(journal), cache_dir=str(cache_dir))
        assert _journals(cache_dir) == [journal] and not _links(cache_dir)
        warm = run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 6

    def test_two_campaigns_writing_one_dir_at_once_both_land(self, tmp_path):
        global _RENDEZVOUS
        _RENDEZVOUS = threading.Barrier(2, timeout=30)
        cache_dir = str(tmp_path / "cache")
        specs = []
        for campaign in ("a", "b"):
            spec = SweepSpec(f"together-{campaign}", base_seed=5)
            spec.add_grid(_rendezvous_task, axes={"cell": [0, 1, 2]}, campaign=campaign)
            specs.append(spec)
        outcomes = {}

        def campaign(spec):
            outcomes[spec.name] = run_sweep(spec, backend="serial", cache_dir=cache_dir)

        threads = [threading.Thread(target=campaign, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert sorted(outcomes) == ["together-a", "together-b"]
        assert all(outcome.passed for outcome in outcomes.values())
        assert len(_journals(tmp_path / "cache")) == 2  # one file per writer
        _RENDEZVOUS = None  # a third run executes nothing
        for spec in specs:
            third = run_sweep(spec, backend="serial", cache_dir=cache_dir)
            assert third.cached_rows == 3
            assert third.canonical_bytes() == outcomes[spec.name].canonical_bytes()

    def test_a_resume_adds_no_second_link(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        journal = str(tmp_path / "j.jsonl")
        first = run_sweep(
            _grid(probe, total=3), backend="serial", journal=journal, cache_dir=str(cache_dir)
        )
        grown = _grid(probe, total=6)
        resumed = run_sweep(
            grown, backend="serial", journal=journal, resume=True, cache_dir=str(cache_dir)
        )
        assert (first.cached_rows, resumed.resumed, _executions(probe)) == (0, 3, 6)
        assert len(_links(cache_dir)) == 1 and _journals(cache_dir) == _links(cache_dir)
        warm = run_sweep(grown, backend="serial", cache_dir=str(cache_dir))
        assert warm.cached_rows == 6 and _executions(probe) == 6

    def test_a_refused_run_leaves_the_dir_as_it_was(self, tmp_path):
        probe, cache_dir = tmp_path / "probe", tmp_path / "cache"
        journal = str(tmp_path / "j.jsonl")
        run_sweep(_grid(probe), backend="serial", journal=journal)
        run_sweep(_grid(probe), backend="serial", cache_dir=str(cache_dir))
        before = _journals(cache_dir)
        with pytest.raises(SweepError, match="already exists"):
            run_sweep(_grid(probe), backend="serial", journal=journal, cache_dir=str(cache_dir))
        other = SweepSpec("another", base_seed=7).add("cell0", _probe_task, probe=str(probe))
        with pytest.raises(SweepError, match="refusing to mix"):
            run_sweep(
                other, backend="serial", journal=journal, resume=True, cache_dir=str(cache_dir)
            )
        assert _journals(cache_dir) == before and not _links(cache_dir)
