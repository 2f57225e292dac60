"""Subprocess helper for the interruption tests (``test_durability.py``).

Runs a fixed 10-cell campaign and prints one machine-readable summary
line.  The first two cells are instant so a journal exists quickly; the
rest sleep a little real time each, giving the parent test a wide window
to SIGINT / SIGKILL this process mid-campaign.

Usage::

    python _durable_helper.py BACKEND [--journal PATH | --resume PATH]
                                      [--hosts HOST:PORT,...]

``--hosts`` feeds the tcp backend its worker fleet (launch the workers
separately; they must outlive this process for the kill tests to mean
anything).
"""

import os
import sys

# The campaign's task function is named by module:qualname, a module tcp
# workers can import too, so it lives in _remote_tasks (launch workers
# with this directory on PYTHONPATH).
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _remote_tasks import durable_grid_task  # noqa: E402

from repro.sweep import SweepSpec, run_sweep  # noqa: E402

TOTAL = 10


def build_spec() -> SweepSpec:
    spec = SweepSpec("durable", base_seed=9)
    for i in range(TOTAL):
        spec.add(f"t{i}", durable_grid_task)
    return spec


def main() -> int:
    backend = sys.argv[1]
    journal = resume = hosts = None
    argv = sys.argv[2:]
    while argv:
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--journal":
            journal = value
        elif flag == "--resume":
            journal, resume = value, True
        elif flag == "--hosts":
            hosts = value
        else:
            raise SystemExit(f"unknown flag {flag!r}")
    outcome = run_sweep(
        build_spec(),
        backend=backend,
        workers=None if backend == "tcp" else 2,
        journal=journal,
        resume=bool(resume),
        hosts=hosts,
    )
    print(
        "RESULT "
        + " ".join(
            [
                f"rows={len(outcome.rows)}",
                f"resumed={outcome.resumed}",
                f"aborted={outcome.aborted}",
                f"interrupted={outcome.interrupted}",
                f"canonical={outcome.canonical_bytes().hex()}",
            ]
        ),
        flush=True,
    )
    return 0 if outcome.passed else 1


if __name__ == "__main__":
    sys.exit(main())
