"""The reach list's standing gate, static half (``ast`` only): every line
of tests/tools/reach.txt names a def or parameter that exists, every
verdict is ``keep`` with a reason from the closed set, and every defaulted
parameter no non-test call passes is listed; and the tracer, on one small
subprocess, keeps tracing past a failed write.  The traced half is
``python tests/tools/reach.py --check``."""

import os
import subprocess
import sys

import pytest

from tests.tools import reach


@pytest.fixture(scope="module")
def entries():
    return reach.read_list()


def test_the_committed_list_passes(entries):
    assert reach.list_problems(entries) == []


def test_every_line_is_keep_with_a_closed_reason(entries):
    for name, (verdict, reason, why) in entries.items():
        allowed = reach.PARAM_REASONS if name.endswith("=)") else reach.DEF_REASONS
        assert verdict == "keep" and reason in allowed and why, name


def test_a_name_that_is_gone_fails(entries):
    stale = dict(entries, **{"repro.sim.clock:parse_duration": ("keep", "api", "x")})
    assert reach.list_problems(stale) == [
        "repro.sim.clock:parse_duration: listed, but no such def in src/repro"
    ]


def test_a_delete_verdict_fails(entries):
    name = next(n for n in entries if not n.endswith("=)"))
    assert reach.list_problems(dict(entries, **{name: ("delete", None, "x")})) == [
        f"{name}: verdict delete"
    ]


def test_a_reason_outside_the_closed_set_fails(entries):
    name = next(n for n in entries if not n.endswith("=)"))
    param = next(n for n in entries if n.endswith("=)"))
    bad = dict(entries, **{name: ("keep", "input", "x"), param: ("keep", "paper", "x")})
    assert len(reach.list_problems(bad)) == 2


def test_an_unlisted_unpassed_default_fails(entries):
    param = next(n for n in entries if n.endswith("=)"))
    trimmed = {n: e for n, e in entries.items() if n != param}
    assert reach.list_problems(trimmed) == [f"{param}: no call passes it, and it is not listed"]


def test_def_and_default_counts_are_the_ones_reported():
    # ROADMAP aim 2 quotes these; a change that moves them says so there.
    assert len(reach.src_defs()) < 963 and reach.count_def_defaults() <= 190


def test_a_failed_write_is_recorded_and_the_tracer_stays_on(tmp_path):
    """CPython unsets a tracer that raises for the rest of its thread: one
    failed write used to hide every later first entry of that process."""
    roots, site, out, err = (tmp_path / d for d in ("pkg", "site", "out", "err"))
    for directory in (roots, site, err):
        directory.mkdir()
    (roots / "mod.py").write_text("def first():\n    pass\n\n\ndef second():\n    pass\n")
    (site / "sitecustomize.py").write_text(reach.SITECUSTOMIZE % {
        "roots": (str(roots),), "out": str(out), "err": str(err)})
    script = "import os, sys, mod\nmod.first()\nos.mkdir(sys.argv[1])\nmod.second()\nmod.first()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(roots)]))
    done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    entered = {line.split("\t")[1] for f in out.iterdir() for line in f.read_text().splitlines()}
    assert entered == {"first", "second"}  # <module> and first's first call were lost
    failures = [line for f in err.iterdir() for line in f.read_text().splitlines()]
    assert len(failures) == 2
    assert all(line.startswith("pid ") and "(-c " in line and "FileNotFoundError" in line
               for line in failures)
