"""Real ``repro worker`` subprocesses for the handful of real-process tests.

The fleet's failure model is proven in virtual time (``fleet_sim.py``);
what still needs real sockets and real processes — the smokes in
``test_remote.py`` / ``test_fleet_chaos.py`` / ``test_durability.py`` and
the CI ``fleet-chaos`` job — spawns its workers through this one fixture:

* :class:`ChaosWorker` — a ``repro worker`` subprocess (own process
  group, port pinned on first spawn) that can be SIGKILLed and *restarted
  on the same port* mid-campaign, which is exactly the flap the
  scheduler's redial/rejoin path must absorb;
* :func:`kill_restart_loop` — the killer thread the CI smoke job runs
  against a live campaign.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from typing import List, Optional

from repro.sweep import SweepError

#: how long a spawned or killed worker process gets to be reaped.
_SPAWN_TIMEOUT_S = 30.0


def _src_root() -> str:
    """The ``src`` directory that holds the importable ``repro`` package."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _pythonpath(extra: Optional[str] = None) -> str:
    parts = [_src_root()]
    if extra:
        parts.append(extra)
    current = os.environ.get("PYTHONPATH")
    if current:
        parts.append(current)
    return os.pathsep.join(parts)


class ChaosWorker:
    """One real ``repro worker`` subprocess under chaos control.

    The worker runs in its own process group so :meth:`kill` hits the
    server *and* its slot processes — the fault real fleets see — and so that
    :meth:`close` can still reap slots orphaned by a server that died
    alone.  The port is pinned on first spawn so :meth:`restart` brings
    the worker back at the same address, which is what lets the
    scheduler's redial loop find it again.
    """

    def __init__(
        self,
        slots: int = 1,
        host: str = "127.0.0.1",
        secret: Optional[str] = None,
        extra_pythonpath: Optional[str] = None,
    ) -> None:
        self.slots = slots
        self.host = host
        self.port = 0  # until the first spawn pins it
        self.secret = secret
        self.extra_pythonpath = extra_pythonpath
        self.proc: Optional[subprocess.Popen] = None
        #: every process group this fixture ever started.
        self._groups: List[int] = []
        self.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def start(self) -> None:
        """Spawn the worker subprocess and parse its LISTENING line."""
        if self.alive:
            raise SweepError(f"worker {self.address} is already running")
        self._forget_process()
        cmd = [sys.executable, "-m", "repro", "worker", "--host", self.host]
        cmd += ["--port", str(self.port), "--slots", str(self.slots)]
        env = dict(os.environ)
        env["PYTHONPATH"] = _pythonpath(self.extra_pythonpath)
        env["PYTHONUNBUFFERED"] = "1"
        if self.secret is not None:
            env["REPRO_SWEEP_SECRET"] = self.secret
        else:
            env.pop("REPRO_SWEEP_SECRET", None)
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
            start_new_session=True,  # own process group: killpg reaches slots
        )
        self._groups.append(self.proc.pid)
        lines = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise SweepError(
                    f"worker exited before LISTENING "
                    f"(rc={self.proc.wait(timeout=_SPAWN_TIMEOUT_S)!r}): "
                    + "".join(lines)
                )
            if line.startswith("LISTENING "):
                break
            lines.append(line)
        self.port = int(line.strip().rpartition(":")[2])  # pinned: restarts reuse it

    restart = start  # same address: a killed worker comes back where it was

    def kill(self) -> None:
        """SIGKILL the whole worker process group (server + slots)."""
        if self.proc is not None:
            _kill_group(self.proc.pid)
            self.proc.wait(timeout=_SPAWN_TIMEOUT_S)

    def close(self) -> None:
        """Tear down everything this fixture started, orphans included."""
        for group in self._groups:
            _kill_group(group)
        if self.proc is not None:
            self.proc.wait(timeout=_SPAWN_TIMEOUT_S)
        self._forget_process()

    def _forget_process(self) -> None:
        if self.proc is not None:
            self.proc.stdout.close()
            self.proc = None

    def __enter__(self) -> "ChaosWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def kill_restart_loop(
    worker: ChaosWorker,
    stop: threading.Event,
    period_s: float = 1.0,
    grace_s: float = 0.5,
) -> int:
    """SIGKILL *worker* every *period_s*, wait *grace_s*, restart it, until
    *stop* is set.  Returns the number of kill/restart cycles — the CI
    smoke job asserts it is > 0, i.e. the campaign really ran under fire.
    """
    cycles = 0
    while not stop.wait(period_s):
        worker.kill()
        if stop.wait(grace_s):
            break
        worker.restart()
        cycles += 1
    return cycles


__all__ = ["ChaosWorker", "kill_restart_loop"]
